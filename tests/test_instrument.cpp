// Tests for the instrumentation substrate: the mini-IR builder and
// interpreter, and the instrumentation pass's Section 2.2/2.4.2 decisions
// (selective per-block dedup, redefinition invalidation, writes-only mode,
// black/whitelists) — plus an end-to-end run where instrumented IR feeds the
// detection runtime.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "instrument/access.hpp"
#include "instrument/analyze_tool.hpp"
#include "instrument/interp.hpp"
#include "instrument/ir_parser.hpp"
#include "instrument/pass.hpp"

namespace pred::ir {
namespace {

TEST(Interpreter, StraightLineArithmetic) {
  FunctionBuilder b("arith", 2);
  const Reg r = b.add(b.arg(0), b.arg(1));
  const Reg r2 = b.mul(r, b.const_val(3));
  b.ret(r2);
  const Function fn = b.take();
  Interpreter interp;
  const std::int64_t args[] = {4, 5};
  EXPECT_EQ(interp.run(fn, args).return_value, 27);
}

// IR arithmetic is 64-bit two's complement: overflow wraps instead of
// being undefined, and the one overflowing division, INT64_MIN / -1, gives
// INT64_MIN (remainder 0) instead of trapping.
TEST(Interpreter, ArithmeticWrapsAndDivisionNeverTraps) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  auto eval = [](const char* op, std::int64_t a, std::int64_t b) {
    const ParseResult parsed = parse_module(
        std::string("func f(2 args, 3 regs):\nbb0:\n  r2 = r0 ") + op +
        " r1\n  ret r2\n");
    EXPECT_TRUE(parsed.ok) << parsed.error;
    Interpreter interp;
    const std::int64_t args[] = {a, b};
    return interp.run(parsed.module, parsed.module.functions[0], args)
        .return_value;
  };
  EXPECT_EQ(eval("+", kMax, 1), kMin);
  EXPECT_EQ(eval("+", kMin, -1), kMax);
  EXPECT_EQ(eval("-", kMin, 1), kMax);
  EXPECT_EQ(eval("-", 0, kMin), kMin);
  EXPECT_EQ(eval("*", kMax, 2), -2);
  EXPECT_EQ(eval("*", kMin, -1), kMin);
  EXPECT_EQ(eval("/", kMin, -1), kMin);
  EXPECT_EQ(eval("%", kMin, -1), 0);
  // Ordinary division still truncates toward zero.
  EXPECT_EQ(eval("/", -7, 2), -3);
  EXPECT_EQ(eval("%", -7, 2), -1);
  EXPECT_EQ(eval("/", kMin, 1), kMin);
}

// A memory operand's base + offset wraps too: a base 2^63 above the target
// plus an offset of INT64_MIN lands back on the target.
TEST(Interpreter, AddressArithmeticWraps) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  alignas(8) std::int64_t cell = 77;
  FunctionBuilder b("wrapped", 1);
  const Reg v = b.load(b.arg(0), kMin);
  b.store(b.arg(0), b.add(v, b.const_val(1)), kMin);
  b.ret(v);
  const Function fn = b.take();
  const std::uint64_t target = reinterpret_cast<std::uintptr_t>(&cell);
  const std::int64_t args[] = {static_cast<std::int64_t>(
      target - static_cast<std::uint64_t>(kMin))};
  Interpreter interp;
  EXPECT_EQ(interp.run(fn, args).return_value, 77);
  EXPECT_EQ(cell, 78);
}

TEST(Interpreter, LoadsAndStoresHitRealMemory) {
  alignas(8) std::int64_t cell = 41;
  FunctionBuilder b("incr", 1);
  const Reg addr = b.arg(0);
  const Reg v = b.load(addr);
  const Reg v2 = b.add(v, b.const_val(1));
  b.store(addr, v2);
  b.ret(v2);
  const Function fn = b.take();
  Interpreter interp;
  const std::int64_t args[] = {static_cast<std::int64_t>(
      reinterpret_cast<std::intptr_t>(&cell))};
  EXPECT_EQ(interp.run(fn, args).return_value, 42);
  EXPECT_EQ(cell, 42);
}

TEST(Interpreter, NarrowAccessesSignExtend) {
  unsigned char byte = 0xff;
  FunctionBuilder b("loadb", 1);
  b.ret(b.load(b.arg(0), 0, 1));
  const Function fn = b.take();
  Interpreter interp;
  const std::int64_t args[] = {static_cast<std::int64_t>(
      reinterpret_cast<std::intptr_t>(&byte))};
  EXPECT_EQ(interp.run(fn, args).return_value, -1);
}

TEST(Interpreter, LoopsAndBranches) {
  // while (i < n) { i = i + 1 } return i
  FunctionBuilder b("count", 1);
  const Reg n = b.arg(0);
  const Reg i = b.fresh_reg();
  const std::uint32_t header = b.new_block();
  const std::uint32_t body = b.new_block();
  const std::uint32_t done = b.new_block();
  b.br(header);
  b.set_block(header);
  b.cond_br(b.cmp_lt(i, n), body, done);
  b.set_block(body);
  const Reg one = b.const_val(1);
  const Reg i2 = b.add(i, one);
  b.move(i, i2);
  b.br(header);
  b.set_block(done);
  b.ret(i);
  const Function fn = b.take();
  Interpreter interp;
  const std::int64_t args[] = {37};
  EXPECT_EQ(interp.run(fn, args).return_value, 37);
}

TEST(Interpreter, StepLimitTrips) {
  FunctionBuilder b("spin", 0);
  b.br(0);  // infinite loop in block 0
  const Function fn = b.take();
  Interpreter interp(nullptr, /*step_limit=*/1000);
  const auto result = interp.run(fn, {});
  EXPECT_TRUE(result.step_limit_exceeded);
  EXPECT_EQ(result.steps, 1000u);
}

TEST(Pass, MarksEveryUniqueAccessOnce) {
  Module m;
  {
    FunctionBuilder b("f", 1);
    const Reg a = b.arg(0);
    b.store(a, b.const_val(1));       // store a+0
    (void)b.load(a);                  // load a+0
    (void)b.load(a);                  // duplicate load a+0
    b.store(a, b.const_val(2));       // duplicate store a+0
    (void)b.load(a, 8);               // load a+8: distinct offset
    b.ret(b.const_val(0));
    m.functions.push_back(b.take());
  }
  const PassStats stats = run_instrumentation_pass(m, {});
  EXPECT_EQ(stats.candidate_accesses, 5u);
  EXPECT_EQ(stats.instrumented_accesses, 3u);
  EXPECT_EQ(stats.skipped_duplicates, 2u);
  EXPECT_TRUE(stats.reconciles());
}

TEST(Pass, IntrinsicsAreCountedApartAndTotalsReconcile) {
  // memset/memcpy sites are not per-address candidates: they land in
  // intrinsic_accesses, and the candidate ledger must still balance:
  //   candidate = instrumented + duplicates + reads + batched + merged.
  Module m;
  {
    FunctionBuilder b("mixed", 3);  // r0 = dst, r1 = src, r2 = len
    b.mem_set(b.arg(0), b.arg(2), 0);
    (void)b.load(b.arg(0));
    (void)b.load(b.arg(0));  // per-block duplicate
    b.mem_copy(b.arg(0), b.arg(1), b.arg(2));
    b.store(b.arg(0), b.const_val(1), 8);
    b.ret(b.const_val(0));
    m.functions.push_back(b.take());
  }
  PassOptions opt;
  opt.mode = InstrumentMode::kWritesOnly;
  const PassStats stats = run_instrumentation_pass(m, opt);
  EXPECT_EQ(stats.intrinsic_accesses, 2u);  // memset + memcpy
  EXPECT_EQ(stats.candidate_accesses, 3u);  // two loads + one store
  EXPECT_EQ(stats.skipped_reads, 2u);
  EXPECT_EQ(stats.instrumented_accesses, 1u);
  EXPECT_EQ(stats.skipped_duplicates, 0u);
  EXPECT_TRUE(stats.reconciles());
  // Intrinsics are instrumented regardless of writes-only mode (the runtime
  // sees their writes; memcpy's read half is a runtime-side decision).
  EXPECT_TRUE(m.functions[0].blocks[0].instrs[0].instrumented);
}

TEST(Pass, RedefinitionInvalidatesRememberedAddresses) {
  // A function where the address register is loaded through, redefined,
  // then loaded through again: the second load must be instrumented even
  // though (register, offset) looks identical.
  Function fn;
  fn.name = "h";
  fn.num_args = 1;
  fn.num_regs = 2;
  fn.blocks.emplace_back();
  auto& instrs = fn.blocks[0].instrs;
  instrs.push_back({.op = Opcode::kLoad, .dst = 1, .a = 0});
  instrs.push_back({.op = Opcode::kAdd, .dst = 0, .a = 0, .b = 1});  // r0 redefined
  instrs.push_back({.op = Opcode::kLoad, .dst = 1, .a = 0});  // must instrument
  instrs.push_back({.op = Opcode::kRet, .a = 1});
  Module m2;
  m2.functions.push_back(fn);
  const PassStats stats = run_instrumentation_pass(m2, {});
  EXPECT_EQ(stats.instrumented_accesses, 2u);
  EXPECT_EQ(stats.skipped_duplicates, 0u);
}

TEST(Pass, BlockBoundariesResetDedup) {
  Function fn;
  fn.name = "blocks";
  fn.num_args = 1;
  fn.num_regs = 2;
  fn.blocks.resize(2);
  fn.blocks[0].instrs.push_back({.op = Opcode::kLoad, .dst = 1, .a = 0});
  fn.blocks[0].instrs.push_back({.op = Opcode::kBr, .target = 1});
  fn.blocks[1].instrs.push_back({.op = Opcode::kLoad, .dst = 1, .a = 0});
  fn.blocks[1].instrs.push_back({.op = Opcode::kRet, .a = 1});
  Module m;
  m.functions.push_back(fn);
  const PassStats stats = run_instrumentation_pass(m, {});
  // Same address, but different basic blocks: both instrumented.
  EXPECT_EQ(stats.instrumented_accesses, 2u);
}

TEST(Pass, WritesOnlyModeSkipsReads) {
  Module m;
  {
    FunctionBuilder b("w", 1);
    (void)b.load(b.arg(0));
    b.store(b.arg(0), b.const_val(1), 8);
    b.ret(b.const_val(0));
    m.functions.push_back(b.take());
  }
  PassOptions opt;
  opt.mode = InstrumentMode::kWritesOnly;
  const PassStats stats = run_instrumentation_pass(m, opt);
  EXPECT_EQ(stats.skipped_reads, 1u);
  EXPECT_EQ(stats.instrumented_accesses, 1u);
  EXPECT_TRUE(stats.reconciles());
}

TEST(Pass, BlacklistAndWhitelist) {
  Module m;
  for (const char* name : {"hot", "cold", "skipme"}) {
    FunctionBuilder b(name, 1);
    (void)b.load(b.arg(0));
    b.ret(b.const_val(0));
    m.functions.push_back(b.take());
  }
  PassOptions opt;
  opt.whitelist = {"hot", "skipme"};
  opt.blacklist = {"skipme"};
  const PassStats stats = run_instrumentation_pass(m, opt);
  EXPECT_EQ(stats.skipped_functions, 2u);  // cold (not whitelisted), skipme
  EXPECT_EQ(stats.instrumented_accesses, 1u);
  EXPECT_TRUE(m.find("hot")->blocks[0].instrs[0].instrumented);
  EXPECT_FALSE(m.find("cold")->blocks[0].instrs[0].instrumented);
}

TEST(Pass, DisablingSelectiveInstrumentsEverything) {
  Module m;
  {
    FunctionBuilder b("all", 1);
    (void)b.load(b.arg(0));
    (void)b.load(b.arg(0));
    (void)b.load(b.arg(0));
    b.ret(b.const_val(0));
    m.functions.push_back(b.take());
  }
  PassOptions opt;
  opt.selective = false;
  const PassStats stats = run_instrumentation_pass(m, opt);
  EXPECT_EQ(stats.instrumented_accesses, 3u);
}

// --- calls, intrinsics, verifier, disassembler -----------------------------

TEST(Interpreter, FunctionCallsResolveThroughModule) {
  Module m;
  {
    FunctionBuilder b("double_it", 1);
    const Reg two = b.const_val(2);
    b.ret(b.mul(b.arg(0), two));
    m.functions.push_back(b.take());
  }
  {
    FunctionBuilder b("caller", 1);
    // call double_it(arg0) twice: 4 * arg0
    const Reg once = b.call(0, b.arg(0), 1);
    b.move(b.arg(0), once);
    const Reg twice = b.call(0, b.arg(0), 1);
    b.ret(twice);
    m.functions.push_back(b.take());
  }
  ASSERT_EQ(verify(m), "");
  Interpreter interp;
  const std::int64_t args[] = {5};
  EXPECT_EQ(interp.run(m, *m.find("caller"), args).return_value, 20);
}

TEST(Interpreter, CallDepthIsBounded) {
  Module m;
  {
    FunctionBuilder b("recurse", 1);
    const Reg r = b.call(0, b.arg(0), 1);  // calls itself forever
    b.ret(r);
    m.functions.push_back(b.take());
  }
  ASSERT_EQ(verify(m), "");
  Interpreter interp;
  const std::int64_t args[] = {1};
  EXPECT_DEATH(interp.run(m, m.functions[0], args), "depth");
}

TEST(Interpreter, MemSetIntrinsicWritesAndInstruments) {
  SessionOptions opts;
  opts.runtime.tracking_threshold = 2;
  opts.runtime.set_sampling_rate(1.0);
  opts.heap_size = 4 * 1024 * 1024;
  Session session(opts);
  auto* buf = static_cast<unsigned char*>(session.alloc(64, session.intern_frames({"ms.c:1"})));
  std::memset(buf, 0xee, 64);

  Module m;
  {
    FunctionBuilder b("clear", 2);  // r0 = addr, r1 = len
    b.mem_set(b.arg(0), b.arg(1), 0);
    b.ret(b.const_val(0));
    m.functions.push_back(b.take());
  }
  ASSERT_EQ(verify(m), "");
  run_instrumentation_pass(m, {});
  Interpreter interp(&session);
  const std::int64_t args[] = {
      static_cast<std::int64_t>(reinterpret_cast<std::intptr_t>(buf)), 20};
  const auto res = interp.run(m, m.functions[0], args);
  EXPECT_EQ(res.runtime_calls, 3u);  // 8 + 8 + 4 bytes
  for (int i = 0; i < 20; ++i) EXPECT_EQ(buf[i], 0);
  EXPECT_EQ(buf[20], 0xee);
}

TEST(Interpreter, MemCopyIntrinsicMovesBytes) {
  alignas(8) char src[24] = "predator-memcpy-tests!";
  alignas(8) char dst[24] = {};
  Module m;
  {
    FunctionBuilder b("copy", 3);  // r0 = dst, r1 = src, r2 = len
    b.mem_copy(b.arg(0), b.arg(1), b.arg(2));
    b.ret(b.const_val(0));
    m.functions.push_back(b.take());
  }
  ASSERT_EQ(verify(m), "");
  Interpreter interp;
  const std::int64_t args[] = {
      static_cast<std::int64_t>(reinterpret_cast<std::intptr_t>(dst)),
      static_cast<std::int64_t>(reinterpret_cast<std::intptr_t>(src)), 23};
  interp.run(m, m.functions[0], args);
  EXPECT_STREQ(dst, src);
}

TEST(Verifier, AcceptsWellFormedFunctions) {
  Module m;
  FunctionBuilder b("ok", 1);
  const Reg v = b.load(b.arg(0));
  b.ret(v);
  m.functions.push_back(b.take());
  EXPECT_EQ(verify(m), "");
}

TEST(Verifier, RejectsMissingTerminator) {
  Function fn;
  fn.name = "bad";
  fn.num_regs = 1;
  fn.blocks.emplace_back();
  fn.blocks[0].instrs.push_back({.op = Opcode::kConst, .dst = 0, .imm = 1});
  Module m;
  m.functions.push_back(fn);
  EXPECT_NE(verify(m).find("terminator"), std::string::npos);
}

TEST(Verifier, RejectsOutOfRangeRegister) {
  Function fn;
  fn.name = "bad";
  fn.num_regs = 1;
  fn.blocks.emplace_back();
  fn.blocks[0].instrs.push_back({.op = Opcode::kLoad, .dst = 7, .a = 0});
  fn.blocks[0].instrs.push_back({.op = Opcode::kRet, .a = 0});
  Module m;
  m.functions.push_back(fn);
  EXPECT_NE(verify(m).find("out of range"), std::string::npos);
}

TEST(Verifier, RejectsBadBranchTarget) {
  Function fn;
  fn.name = "bad";
  fn.num_regs = 1;
  fn.blocks.emplace_back();
  fn.blocks[0].instrs.push_back({.op = Opcode::kBr, .target = 9});
  Module m;
  m.functions.push_back(fn);
  EXPECT_NE(verify(m).find("branch target"), std::string::npos);
}

TEST(Verifier, RejectsCallArityMismatch) {
  Module m;
  {
    FunctionBuilder b("callee", 2);
    b.ret(b.arg(0));
    m.functions.push_back(b.take());
  }
  {
    FunctionBuilder b("caller", 1);
    const Reg r = b.call(0, b.arg(0), 1);  // callee wants 2 args
    b.ret(r);
    m.functions.push_back(b.take());
  }
  EXPECT_NE(verify(m).find("argument count"), std::string::npos);
}

TEST(Verifier, RejectsDeadCodeAfterTerminator) {
  Function fn;
  fn.name = "bad";
  fn.num_regs = 1;
  fn.blocks.emplace_back();
  fn.blocks[0].instrs.push_back({.op = Opcode::kRet, .a = 0});
  fn.blocks[0].instrs.push_back({.op = Opcode::kConst, .dst = 0, .imm = 0});
  Module m;
  m.functions.push_back(fn);
  EXPECT_NE(verify(m).find("terminator"), std::string::npos);
}

TEST(Disassembler, ListsBlocksAndMarksInstrumentation) {
  Module m;
  FunctionBuilder b("show", 1);
  const Reg v = b.load(b.arg(0), 16, 4);
  b.store(b.arg(0), v, 24, 4);
  b.ret(v);
  m.functions.push_back(b.take());
  run_instrumentation_pass(m, {});
  const std::string text = to_string(m);
  EXPECT_NE(text.find("func show(1 args"), std::string::npos);
  EXPECT_NE(text.find("bb0:"), std::string::npos);
  EXPECT_NE(text.find("* r1 = load.4 [r0 + 16]"), std::string::npos);
  EXPECT_NE(text.find("* store.4 [r0 + 24], r1"), std::string::npos);
  EXPECT_NE(text.find("ret"), std::string::npos);
}

// End-to-end: instrumented IR writes from two interpreter "threads" are
// seen by the detection runtime as false sharing.
TEST(InstrumentedExecution, DetectsFalseSharingFromIR) {
  SessionOptions opts;
  opts.runtime.tracking_threshold = 2;
  opts.runtime.report_invalidation_threshold = 50;
  opts.heap_size = 4 * 1024 * 1024;
  Session session(opts);
  auto* shared = static_cast<std::int64_t*>(
      session.alloc(64, session.intern_frames({"ir_program.c:7"})));
  ASSERT_NE(shared, nullptr);

  // for (i = 0; i < 400; i++) { store slot } — one function per thread slot.
  Module m;
  {
    FunctionBuilder b("hammer", 2);  // r0 = slot address, r1 = iterations
    const Reg slot = b.arg(0);
    const Reg n = b.arg(1);
    const Reg i = b.fresh_reg();
    const std::uint32_t header = b.new_block();
    const std::uint32_t body = b.new_block();
    const std::uint32_t done = b.new_block();
    b.br(header);
    b.set_block(header);
    b.cond_br(b.cmp_lt(i, n), body, done);
    b.set_block(body);
    b.store(slot, i);
    const Reg one = b.const_val(1);
    const Reg i2 = b.add(i, one);
    b.move(i, i2);
    b.br(header);
    b.set_block(done);
    b.ret(i);
    m.functions.push_back(b.take());
  }
  run_instrumentation_pass(m, {});

  Interpreter interp(&session);
  const Function* fn = m.find("hammer");
  ASSERT_NE(fn, nullptr);
  // Interleave two logical threads' executions coarsely: alternate short
  // bursts so the history table sees both threads.
  for (int round = 0; round < 40; ++round) {
    for (ThreadId tid = 0; tid < 2; ++tid) {
      const std::int64_t args[] = {
          static_cast<std::int64_t>(
              reinterpret_cast<std::intptr_t>(shared) + 8 * tid),
          10};
      const auto res = interp.run(*fn, args, tid);
      EXPECT_GT(res.runtime_calls, 0u);
    }
  }
  const Report rep = session.report();
  ASSERT_FALSE(rep.findings.empty());
  EXPECT_EQ(rep.findings[0].kind, SharingKind::kFalseSharing);
}

// ---------------------------------------------------------------------------
// The analyze tool's argument contract (predator-cli delegates to it, so
// these ARE the CLI's guarantees): unknown flags, missing operands, and
// malformed values must be rejected with a diagnostic, never half-applied.
// ---------------------------------------------------------------------------

TEST(AnalyzeArgs, AcceptsPathAndKnownFlags) {
  AnalyzeOptions opt;
  std::string err;
  EXPECT_TRUE(parse_analyze_args({"m.pir"}, &opt, &err)) << err;
  EXPECT_EQ(opt.path, "m.pir");
  EXPECT_FALSE(opt.json);
  EXPECT_FALSE(opt.predict);
  EXPECT_EQ(opt.line_size, 64u);

  opt = {};
  EXPECT_TRUE(parse_analyze_args(
      {"m.pir", "--json", "--predict", "--line-size", "128"}, &opt, &err))
      << err;
  EXPECT_TRUE(opt.json);
  EXPECT_TRUE(opt.predict);
  EXPECT_EQ(opt.line_size, 128u);
}

TEST(AnalyzeArgs, RejectsUnknownFlag) {
  AnalyzeOptions opt;
  std::string err;
  EXPECT_FALSE(parse_analyze_args({"m.pir", "--bogus"}, &opt, &err));
  EXPECT_NE(err.find("--bogus"), std::string::npos) << err;
}

TEST(AnalyzeArgs, RejectsMissingPathAndExtraPositional) {
  AnalyzeOptions opt;
  std::string err;
  EXPECT_FALSE(parse_analyze_args({}, &opt, &err));
  EXPECT_FALSE(err.empty());
  err.clear();
  EXPECT_FALSE(parse_analyze_args({"a.pir", "b.pir"}, &opt, &err));
  EXPECT_FALSE(err.empty());
}

TEST(AnalyzeArgs, RejectsMalformedLineSize) {
  AnalyzeOptions opt;
  std::string err;
  EXPECT_FALSE(parse_analyze_args({"m.pir", "--line-size"}, &opt, &err));
  EXPECT_FALSE(parse_analyze_args({"m.pir", "--line-size", "0"}, &opt, &err));
  EXPECT_FALSE(parse_analyze_args({"m.pir", "--line-size", "48"}, &opt, &err));
  EXPECT_FALSE(
      parse_analyze_args({"m.pir", "--line-size", "pony"}, &opt, &err));
}

TEST(AnalyzeTool, MissingFileFailsAndJsonRunEmitsLedgerAndPrediction) {
  AnalyzeOptions opt;
  opt.path = "/nonexistent/predator-test.pir";
  std::string out;
  std::string err;
  EXPECT_NE(run_analyze(opt, &out, &err), 0);
  EXPECT_FALSE(err.empty());

  // A real module through the JSON path: the document must carry the
  // ledger and, with --predict, the prediction block.
  const char* path = "predator_analyze_tool_test.pir";
  std::FILE* f = std::fopen(path, "w");
  ASSERT_NE(f, nullptr);
  std::fputs(
      "func w0(2 args, 4 regs):\n"
      "bb0:\n"
      "  r2 = const 1\n"
      "  store.8 [r0], r2\n"
      "  ret r2\n\n"
      "func w1(2 args, 4 regs):\n"
      "bb0:\n"
      "  r2 = const 1\n"
      "  store.8 [r0 + 8], r2\n"
      "  ret r2\n",
      f);
  std::fclose(f);
  opt.path = path;
  opt.json = true;
  opt.predict = true;
  out.clear();
  err.clear();
  EXPECT_EQ(run_analyze(opt, &out, &err), 0) << err;
  EXPECT_NE(out.find("\"ledger\""), std::string::npos);
  EXPECT_NE(out.find("\"candidate_accesses\""), std::string::npos);
  EXPECT_NE(out.find("\"predict\""), std::string::npos);
  EXPECT_NE(out.find("\"false_sharing\":true"), std::string::npos);
  // Text mode on the same module mentions the prediction header.
  opt.json = false;
  out.clear();
  EXPECT_EQ(run_analyze(opt, &out, &err), 0) << err;
  EXPECT_NE(out.find("static prediction:"), std::string::npos);
  std::remove(path);
}

}  // namespace
}  // namespace pred::ir
