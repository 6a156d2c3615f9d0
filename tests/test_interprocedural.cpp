// Tests for the interprocedural analysis layer: the call graph (SCC
// condensation), exact callee access summaries, call batching through
// "$bare" clones, and the thread-escape analysis — proven by
//
//   * a differential fuzz suite: modules pruned with summaries produce
//     BIT-IDENTICAL detector reports to selectively-instrumented ones over
//     100+ generator seeds, including recursive call graphs and calls
//     inside loops;
//   * an execution oracle: a shadow records every (address, thread) pair
//     actually touched, and no address ever accessed by two threads may
//     have had a delivery dropped as "provably thread-private";
//   * summary-exactness checks that fail if a summary over- or
//     under-counts a callee's per-invocation deliveries by even one; and
//   * negative regressions: summarization bails to ⊤ on data-dependent
//     addressing, instrumented intrinsics, and recursion, and call
//     batching never fires across a ⊤ callee or a varying pointer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "alloc/heap_region.hpp"
#include "alloc/ownership_map.hpp"
#include "alloc/thread_heap.hpp"
#include "instrument/analysis/callgraph.hpp"
#include "instrument/analysis/escape.hpp"
#include "instrument/analysis/generator.hpp"
#include "instrument/analysis/summaries.hpp"
#include "instrument/interp.hpp"
#include "instrument/ir.hpp"
#include "instrument/ir_parser.hpp"
#include "instrument/pass.hpp"
#include "report_io/report_json.hpp"

namespace pred::ir {
namespace {

// ---------------------------------------------------------------------------
// Shared builders
// ---------------------------------------------------------------------------

/// Straight-line summarizable leaf: store [a0], store [a0+8], load [a0+8].
/// Exactly three deliveries per invocation.
Function make_leaf() {
  FunctionBuilder b("leaf", 2);
  b.store(b.arg(0), b.const_val(1), 0);
  b.store(b.arg(0), b.const_val(2), 8);
  (void)b.load(b.arg(0), 8);
  b.ret(b.const_val(0));
  return b.take();
}

/// Constant-bound loop leaf: for i in 0..3, store [a0 + 16] and load
/// [a0 + 8*i] — summarizable only by unrolling the constant-decided path.
Function make_const_loop_leaf() {
  FunctionBuilder b("quad", 2);
  const Reg i = b.fresh_reg();
  b.move(i, b.const_val(0));
  const Reg k = b.const_val(4);
  const std::uint32_t header = b.new_block();
  const std::uint32_t body = b.new_block();
  const std::uint32_t exit = b.new_block();
  b.br(header);
  b.set_block(header);
  b.cond_br(b.cmp_lt(i, k), body, exit);
  b.set_block(body);
  b.store(b.arg(0), i, 16);
  const Reg scaled = b.mul(i, b.const_val(8));
  (void)b.load(b.add(b.arg(0), scaled), 0);
  b.move(i, b.add(i, b.const_val(1)));
  b.br(header);
  b.set_block(exit);
  b.ret(i);
  return b.take();
}

/// Data-dependent leaf: the store address hinges on n — ⊤ by design.
Function make_data_dep_leaf() {
  FunctionBuilder b("datadep", 2);
  const Reg m = b.rem(b.arg(1), b.const_val(4));
  const Reg scaled = b.mul(m, b.const_val(8));
  b.store(b.add(b.arg(0), scaled), b.const_val(9), 0);
  b.ret(b.const_val(0));
  return b.take();
}

/// Self-recursive leaf: depth folded through n % 7 — ⊤ by cycle membership.
Function make_recursive_leaf(std::uint32_t self) {
  FunctionBuilder b("spin", 2);
  const Reg k = b.rem(b.arg(1), b.const_val(7));
  b.store(b.arg(0), k, 0);
  const std::uint32_t rec = b.new_block();
  const std::uint32_t done = b.new_block();
  b.cond_br(b.cmp_lt(k, b.const_val(1)), done, rec);
  b.set_block(rec);
  const Reg a0 = b.fresh_reg();
  const Reg a1 = b.fresh_reg();
  b.move(a0, b.arg(0));
  b.move(a1, b.sub(k, b.const_val(1)));
  b.call(self, a0, 2);
  b.ret(b.const_val(0));
  b.set_block(done);
  b.ret(b.const_val(0));
  return b.take();
}

/// Intrinsic leaf: an instrumented memset — ⊤ by definition.
Function make_intrinsic_leaf() {
  FunctionBuilder b("wiper", 2);
  b.mem_set(b.arg(0), b.const_val(32), 0);
  b.ret(b.const_val(0));
  return b.take();
}

/// main(buf, n): canonical counted loop whose body calls functions[0] once
/// per iteration. With `varying` false the callee receives (buf, 3) — the
/// exact shape call batching expands. With `varying` true it receives
/// (buf + i*8, 3), so the per-iteration access set moves and batching must
/// refuse.
Function make_call_loop_main(bool varying) {
  FunctionBuilder b("main", 2);
  const Reg i = b.fresh_reg();
  b.move(i, b.const_val(0));
  const std::uint32_t header = b.new_block();
  const std::uint32_t body = b.new_block();
  const std::uint32_t exit = b.new_block();
  b.br(header);
  b.set_block(header);
  b.cond_br(b.cmp_lt(i, b.arg(1)), body, exit);
  b.set_block(body);
  const Reg a0 = b.fresh_reg();
  const Reg a1 = b.fresh_reg();
  if (varying) {
    const Reg scaled = b.mul(i, b.const_val(8));
    b.move(a0, b.add(b.arg(0), scaled));
  } else {
    b.move(a0, b.arg(0));
  }
  b.move(a1, b.const_val(3));
  b.call(0, a0, 2);
  b.move(i, b.add(i, b.const_val(1)));
  b.br(header);
  b.set_block(exit);
  b.ret(i);
  return b.take();
}

Module make_call_loop_module(Function callee, bool varying) {
  Module m;
  m.functions.push_back(std::move(callee));
  m.functions.push_back(make_call_loop_main(varying));
  EXPECT_EQ(verify(m), "");
  return m;
}

/// wrap(buf, n) calls leaf(buf + 24, 1) twice.
Function make_wrap() {
  FunctionBuilder b("wrap", 2);
  const Reg a0 = b.fresh_reg();
  const Reg a1 = b.fresh_reg();
  b.move(a0, b.add(b.arg(0), b.const_val(24)));
  b.move(a1, b.const_val(1));
  b.call(0, a0, 2);
  b.call(0, a0, 2);
  b.ret(b.const_val(0));
  return b.take();
}

PassOptions interproc_all() {
  PassOptions opt;
  opt.loop_batching = true;
  opt.dominance_elim = true;
  opt.interprocedural = true;
  return opt;
}

// ---------------------------------------------------------------------------
// Detector harness (same deterministic configuration as test_analysis.cpp)
// ---------------------------------------------------------------------------

struct RunTotals {
  std::uint64_t calls = 0;
  std::uint64_t delivered = 0;
};

alignas(64) std::int64_t g_buffer[1024];

/// The fully deterministic detector every module run reports through.
SessionOptions module_run_options() {
  SessionOptions opts;
  opts.runtime.tracking_threshold = 1;
  opts.runtime.report_invalidation_threshold = 1;
  opts.runtime.prediction_enabled = false;
  opts.runtime.set_sampling_rate(1.0);
  opts.heap_size = 4 * 1024 * 1024;
  return opts;
}

/// Tracks g_buffer and pre-escalates every line (threshold 1: one write
/// creates the tracker), so no later delivery can straddle the tracking
/// boundary.
void track_buffer(Session& session) {
  session.register_global(g_buffer, sizeof g_buffer, "gen_buffer");
  for (std::size_t w = 0; w < 1024; w += 8) {
    session.record(&g_buffer[w], AccessType::kWrite, 0, 8);
  }
}

std::string report_json(const Session& session) {
  return report_to_json(session.report(), session.runtime().callsites());
}

/// Accesses the session's trackers retired on the sync-aware ownership
/// word.
std::uint64_t suppressed_accesses(const Session& session) {
  std::uint64_t n = 0;
  session.runtime().for_each_region([&](const ShadowSpace& r) {
    r.for_each_tracker([&](std::size_t, const CacheTracker* t) {
      n += t->suppressed_accesses();
    });
  });
  return n;
}

/// A detector that never suppresses, run alongside a module: a second
/// session fed the interpreter's delivered accesses and handoff claims but
/// no synchronization event, so every thread's epoch stays 0 and no
/// ownership word is ever built. The claims are delivered as
/// Runtime::handle_handoff delivers them, minus the epoch bump.
class NeverSuppressingReference {
 public:
  NeverSuppressingReference() : session_(module_run_options()) {
    track_buffer(session_);
  }

  void attach(Interpreter& interp) {
    interp.set_delivery_observer([this](Address a, std::uint32_t width,
                                        AccessType type, ThreadId tid,
                                        std::uint64_t count) {
      session_.record_n(reinterpret_cast<void*>(a), type, tid, width, count);
      delivered_ += count;
    });
    interp.set_handoff_observer(
        [this](Address a, std::size_t len, ThreadId tid) {
          claim(a, len, tid);
        });
  }

  const Session& session() const { return session_; }
  std::uint64_t delivered() const { return delivered_; }

 private:
  void claim(Address a, std::size_t len, ThreadId tid) {
    ShadowSpace* region = session_.runtime().find_region(a);
    if (region == nullptr) return;
    const Address last = a + len - 1;
    const std::size_t hi = region->contains(last) ? region->line_index(last)
                                                  : region->num_lines() - 1;
    for (std::size_t i = region->line_index(a); i <= hi; ++i) {
      CacheTracker* t = region->tracker(i);
      ASSERT_NE(t, nullptr) << "line " << i << " was not pre-escalated";
      t->claim_for_handoff(tid, /*epoch=*/0);
    }
  }

  Session session_;
  std::uint64_t delivered_ = 0;
};

/// Executes the first `num_fns` functions of `m` (the originals — "$bare"
/// clones run only when called) from two alternating logical threads
/// against g_buffer under a fully deterministic runtime and returns the
/// detector report as JSON. `suppressed`, when given, receives the accesses
/// the detector retired on the sync-aware ownership word; `reference`,
/// when given, sees the same run.
std::string run_module_report(const Module& m, std::size_t num_fns,
                              std::int64_t n, RunTotals* totals,
                              std::uint64_t* suppressed = nullptr,
                              NeverSuppressingReference* reference = nullptr) {
  Session session(module_run_options());
  std::memset(g_buffer, 0, sizeof g_buffer);
  track_buffer(session);
  Interpreter interp(&session);
  if (reference != nullptr) reference->attach(interp);
  const std::int64_t args[] = {
      static_cast<std::int64_t>(reinterpret_cast<std::intptr_t>(g_buffer)),
      n};
  for (int round = 0; round < 2; ++round) {
    for (ThreadId tid = 0; tid < 2; ++tid) {
      for (std::size_t f = 0; f < num_fns; ++f) {
        const auto res = interp.run(m, m.functions[f], args, tid);
        EXPECT_FALSE(res.step_limit_exceeded);
        totals->calls += res.runtime_calls;
        totals->delivered += res.accesses_delivered;
      }
    }
  }
  if (suppressed != nullptr) *suppressed = suppressed_accesses(session);
  return report_json(session);
}

// ---------------------------------------------------------------------------
// Call graph
// ---------------------------------------------------------------------------

TEST(CallGraph, EdgesSccsAndBottomUpOrder) {
  Module m;
  m.functions.push_back(make_leaf());             // @0
  {                                               // @1: calls @0 twice
    FunctionBuilder b("caller", 2);
    const Reg a0 = b.fresh_reg();
    const Reg a1 = b.fresh_reg();
    b.move(a0, b.arg(0));
    b.move(a1, b.arg(1));
    b.call(0, a0, 2);
    b.call(0, a0, 2);
    b.ret(b.const_val(0));
    m.functions.push_back(b.take());
  }
  m.functions.push_back(make_recursive_leaf(2));  // @2: self cycle
  {                                               // @3 <-> @4 mutual
    FunctionBuilder b("mut_a", 2);
    const Reg a0 = b.fresh_reg();
    const Reg a1 = b.fresh_reg();
    b.move(a0, b.arg(0));
    b.move(a1, b.arg(1));
    b.call(4, a0, 2);
    b.ret(b.const_val(0));
    m.functions.push_back(b.take());
  }
  {
    FunctionBuilder b("mut_b", 2);
    const Reg a0 = b.fresh_reg();
    const Reg a1 = b.fresh_reg();
    b.move(a0, b.arg(0));
    b.move(a1, b.arg(1));
    b.call(3, a0, 2);
    b.ret(b.const_val(0));
    m.functions.push_back(b.take());
  }
  {                                               // @5: calls @1 and @3
    FunctionBuilder b("top", 2);
    const Reg a0 = b.fresh_reg();
    const Reg a1 = b.fresh_reg();
    b.move(a0, b.arg(0));
    b.move(a1, b.arg(1));
    b.call(1, a0, 2);
    b.call(3, a0, 2);
    b.ret(b.const_val(0));
    m.functions.push_back(b.take());
  }
  ASSERT_EQ(verify(m), "");

  const CallGraph cg(m);
  EXPECT_EQ(cg.num_functions(), 6u);
  EXPECT_EQ(cg.num_call_sites(), 7u);  // duplicates counted
  EXPECT_EQ(cg.callees(1), (std::vector<std::uint32_t>{0}));  // deduplicated
  EXPECT_EQ(cg.callees(5), (std::vector<std::uint32_t>{1, 3}));

  EXPECT_FALSE(cg.in_cycle(0));
  EXPECT_FALSE(cg.in_cycle(1));
  EXPECT_TRUE(cg.in_cycle(2));  // self-recursion
  EXPECT_TRUE(cg.in_cycle(3));  // mutual recursion
  EXPECT_TRUE(cg.in_cycle(4));
  EXPECT_FALSE(cg.in_cycle(5));

  // The mutual pair shares one SCC; everyone else is a singleton.
  EXPECT_EQ(cg.scc_of(3), cg.scc_of(4));
  EXPECT_EQ(cg.num_sccs(), 5u);

  // Callees precede callers for every cross-SCC edge, both in SCC ids and
  // in the bottom-up order.
  std::vector<std::size_t> pos(cg.num_functions());
  for (std::size_t i = 0; i < cg.bottom_up().size(); ++i) {
    pos[cg.bottom_up()[i]] = i;
  }
  for (std::uint32_t f = 0; f < cg.num_functions(); ++f) {
    for (const std::uint32_t callee : cg.callees(f)) {
      if (cg.scc_of(callee) == cg.scc_of(f)) continue;
      EXPECT_LT(cg.scc_of(callee), cg.scc_of(f)) << f << " -> " << callee;
      EXPECT_LT(pos[callee], pos[f]) << f << " -> " << callee;
    }
  }
}

// ---------------------------------------------------------------------------
// Summary exactness: counts reconcile with what the interpreter delivers.
// Each test fails if a summary over- or under-counts by even one access.
// ---------------------------------------------------------------------------

/// Instruments `m` selectively, summarizes it, and checks function `f`'s
/// summary total against a real single-invocation run: the interpreter's
/// conservation counter is the ground truth the summary must hit exactly.
void expect_summary_matches_delivery(Module m, std::uint32_t f,
                                     std::int64_t n) {
  const PassStats stats = run_instrumentation_pass(m, {});
  ASSERT_TRUE(stats.reconciles());
  const CallGraph cg(m);
  const SummaryTable table = summarize_module(m, cg);
  const AccessSummary& s = table.per_function[f];
  ASSERT_TRUE(s.exact) << m.functions[f].name;

  SessionOptions opts;
  opts.runtime.tracking_threshold = 1;
  opts.runtime.prediction_enabled = false;
  opts.runtime.set_sampling_rate(1.0);
  opts.heap_size = 4 * 1024 * 1024;
  Session session(opts);
  std::memset(g_buffer, 0, sizeof g_buffer);
  session.register_global(g_buffer, sizeof g_buffer, "gen_buffer");
  Interpreter interp(&session);
  const std::int64_t args[] = {
      static_cast<std::int64_t>(reinterpret_cast<std::intptr_t>(g_buffer)),
      n};
  const auto res = interp.run(m, m.functions[f], args, 0);
  ASSERT_FALSE(res.step_limit_exceeded);
  // Off-by-one in either direction breaks this equality.
  EXPECT_EQ(s.total_accesses(), res.accesses_delivered)
      << m.functions[f].name << " n=" << n;
}

TEST(Summaries, StraightLineLeafIsExact) {
  Module m;
  m.functions.push_back(make_leaf());
  run_instrumentation_pass(m, {});
  const CallGraph cg(m);
  const SummaryTable table = summarize_module(m, cg);
  const AccessSummary& s = table.per_function[0];
  ASSERT_TRUE(s.exact);
  ASSERT_EQ(s.entries.size(), 3u);
  for (const auto& e : s.entries) {
    EXPECT_EQ(e.arg, 0u);
    EXPECT_EQ(e.width, 8u);
    EXPECT_EQ(e.count, 1u);
  }
  EXPECT_EQ(s.total_accesses(), 3u);

  Module again;
  again.functions.push_back(make_leaf());
  expect_summary_matches_delivery(std::move(again), 0, 5);
}

TEST(Summaries, ConstLoopLeafUnrollsExactly) {
  Module m;
  m.functions.push_back(make_const_loop_leaf());
  run_instrumentation_pass(m, {});
  const CallGraph cg(m);
  const SummaryTable table = summarize_module(m, cg);
  const AccessSummary& s = table.per_function[0];
  ASSERT_TRUE(s.exact);
  // Four stores of [a0+16] coalesce into one entry of count 4; the four
  // loads of [a0 + 8*i] stay distinct (different offsets).
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  for (const auto& e : s.entries) {
    if (e.is_write) {
      EXPECT_EQ(e.offset, 16);
      writes += e.count;
    } else {
      reads += e.count;
    }
  }
  EXPECT_EQ(writes, 4u);
  EXPECT_EQ(reads, 4u);
  EXPECT_EQ(s.total_accesses(), 8u);

  Module again;
  again.functions.push_back(make_const_loop_leaf());
  expect_summary_matches_delivery(std::move(again), 0, 11);
}

TEST(Summaries, CallerRebasesCalleeEntriesThroughArgumentOffsets) {
  // wrap calls leaf(buf + 24, 1) twice: wrap's summary must carry leaf's
  // entries at offset + 24 with count 2.
  Module m;
  m.functions.push_back(make_leaf());
  m.functions.push_back(make_wrap());
  ASSERT_EQ(verify(m), "");
  run_instrumentation_pass(m, {});
  const CallGraph cg(m);
  const SummaryTable table = summarize_module(m, cg);
  const AccessSummary& s = table.per_function[1];
  ASSERT_TRUE(s.exact);
  ASSERT_EQ(s.entries.size(), 3u);
  for (const auto& e : s.entries) {
    EXPECT_EQ(e.arg, 0u);
    EXPECT_TRUE(e.offset == 24 || e.offset == 32) << e.offset;
    EXPECT_EQ(e.count, 2u);
  }
  EXPECT_EQ(s.total_accesses(), 6u);

  Module again;
  again.functions.push_back(make_leaf());
  again.functions.push_back(make_wrap());
  expect_summary_matches_delivery(std::move(again), 1, 3);
}

TEST(Summaries, RecursiveCalleesAreTop) {
  Module m;
  m.functions.push_back(make_recursive_leaf(0));
  run_instrumentation_pass(m, {});
  const CallGraph cg(m);
  EXPECT_TRUE(cg.in_cycle(0));
  const SummaryTable table = summarize_module(m, cg);
  EXPECT_FALSE(table.per_function[0].exact);
  EXPECT_EQ(table.num_exact(), 0u);
}

TEST(Summaries, PassLedgerCountsExactAndTopFunctions) {
  Module m = make_call_loop_module(make_leaf(), /*varying=*/false);
  m.functions.push_back(make_data_dep_leaf());
  SummaryTable table;
  const PassStats stats = run_instrumentation_pass(m, interproc_all(), &table);
  EXPECT_TRUE(stats.reconciles());
  // leaf is exact; main branches on its argument (⊤); datadep is ⊤.
  EXPECT_EQ(stats.callee_summaries, 1u);
  EXPECT_EQ(stats.summary_top, 2u);
  EXPECT_TRUE(table.per_function[0].exact);
  EXPECT_FALSE(table.per_function[2].exact);
}

// ---------------------------------------------------------------------------
// Call batching through summaries: structure
// ---------------------------------------------------------------------------

TEST(Pass, CallBatchingExpandsThroughSummarizableCallee) {
  Module m = make_call_loop_module(make_leaf(), /*varying=*/false);
  PassOptions opt;
  opt.loop_batching = true;
  opt.interprocedural = true;
  const PassStats stats = run_instrumentation_pass(m, opt);
  EXPECT_TRUE(stats.reconciles());
  EXPECT_EQ(stats.call_batched, 1u);
  EXPECT_EQ(stats.bare_clones, 1u);
  ASSERT_EQ(m.functions.size(), 3u);
  EXPECT_EQ(m.functions[2].name, "leaf$bare");
  EXPECT_EQ(verify(m), "");

  // The clone delivers nothing...
  for (const BasicBlock& bb : m.functions[2].blocks) {
    for (const Instr& in : bb.instrs) EXPECT_FALSE(in.instrumented);
  }
  // ...the loop's call now targets it...
  bool retargeted = false;
  for (const BasicBlock& bb : m.functions[1].blocks) {
    for (const Instr& in : bb.instrs) {
      if (in.op == Opcode::kCall) {
        EXPECT_EQ(in.imm, 2);
        retargeted = true;
      }
    }
  }
  EXPECT_TRUE(retargeted);
  // ...and the preheader reports leaf's whole per-invocation access set.
  std::uint64_t reports = 0;
  for (const Instr& in : m.functions[1].blocks[0].instrs) {
    if (in.op == Opcode::kReport) ++reports;
  }
  EXPECT_EQ(reports, 3u);
  EXPECT_EQ(stats.reports_inserted, 3u);
}

TEST(Pass, InterproceduralLayerIsOffByDefault) {
  Module m = make_call_loop_module(make_leaf(), /*varying=*/false);
  const PassStats stats = run_instrumentation_pass(m, {});
  EXPECT_EQ(stats.call_batched, 0u);
  EXPECT_EQ(stats.bare_clones, 0u);
  EXPECT_EQ(stats.callee_summaries, 0u);
  EXPECT_EQ(stats.summary_top, 0u);
  EXPECT_EQ(m.functions.size(), 2u);
}

/// Batched-through-call modules deliver bit-identical reports, including
/// the n = 0 edge where the loop never runs and the planted trip-count
/// reports must deliver nothing.
TEST(Pass, CallBatchingPreservesReportsIncludingZeroTrips) {
  for (Function (*leaf)() : {&make_leaf, &make_const_loop_leaf}) {
    const Module generated = make_call_loop_module(leaf(), /*varying=*/false);
    for (const std::int64_t n : {0, 1, 2, 7}) {
      Module base = generated;
      Module pruned = generated;
      run_instrumentation_pass(base, {});
      const PassStats stats = run_instrumentation_pass(pruned, interproc_all());
      EXPECT_TRUE(stats.reconciles());
      EXPECT_EQ(stats.call_batched, 1u);
      RunTotals bt;
      RunTotals pt;
      const std::string bj =
          run_module_report(base, base.functions.size(), n, &bt);
      const std::string pj =
          run_module_report(pruned, generated.functions.size(), n, &pt);
      EXPECT_EQ(bt.delivered, pt.delivered) << "n=" << n;
      EXPECT_LE(pt.calls, bt.calls) << "n=" << n;
      EXPECT_EQ(bj, pj) << "n=" << n;
    }
  }
}

// ---------------------------------------------------------------------------
// Negative regressions: where the machinery must keep its hands off
// ---------------------------------------------------------------------------

TEST(NegativeRegression, SummarizationBailsToTopOnDataDependentAddressing) {
  Module m;
  m.functions.push_back(make_data_dep_leaf());
  run_instrumentation_pass(m, {});
  const CallGraph cg(m);
  EXPECT_FALSE(summarize_module(m, cg).per_function[0].exact);
}

TEST(NegativeRegression, SummarizationBailsToTopOnInstrumentedIntrinsic) {
  Module m;
  m.functions.push_back(make_intrinsic_leaf());
  run_instrumentation_pass(m, {});
  const CallGraph cg(m);
  EXPECT_FALSE(summarize_module(m, cg).per_function[0].exact);
  // The same callee with instrumentation stripped delivers nothing and is
  // exactly summarizable as empty — ⊤ came from the instrumented intrinsic,
  // not the opcode.
  Module bare;
  bare.functions.push_back(make_intrinsic_leaf());
  const CallGraph cg2(bare);
  const SummaryTable t2 = summarize_module(bare, cg2);
  EXPECT_TRUE(t2.per_function[0].exact);
  EXPECT_EQ(t2.per_function[0].total_accesses(), 0u);
}

/// If the pass ignored summary exactness it would plant reports for a
/// data-dependent callee and break the delivered count — batching across a
/// ⊤ callee must never fire.
TEST(NegativeRegression, CallBatchingNeverFiresAcrossTopCallee) {
  std::vector<Module> modules;
  modules.push_back(make_call_loop_module(make_data_dep_leaf(), false));
  modules.push_back(make_call_loop_module(make_recursive_leaf(0), false));
  modules.push_back(make_call_loop_module(make_intrinsic_leaf(), false));
  for (const Module& generated : modules) {
    Module pruned = generated;
    const PassStats stats = run_instrumentation_pass(pruned, interproc_all());
    EXPECT_TRUE(stats.reconciles());
    EXPECT_EQ(stats.call_batched, 0u) << generated.functions[0].name;
    EXPECT_EQ(stats.bare_clones, 0u);
    for (const Function& fn : pruned.functions) {
      EXPECT_EQ(fn.name.find("$bare"), std::string::npos) << fn.name;
    }

    Module base = generated;
    run_instrumentation_pass(base, {});
    RunTotals bt;
    RunTotals pt;
    const std::string bj =
        run_module_report(base, base.functions.size(), 7, &bt);
    const std::string pj =
        run_module_report(pruned, generated.functions.size(), 7, &pt);
    EXPECT_EQ(bt.delivered, pt.delivered) << generated.functions[0].name;
    EXPECT_EQ(bj, pj) << generated.functions[0].name;
  }
}

/// A pointer that moves with the induction variable reaches a different
/// address set each iteration — batching through the (exactly summarized!)
/// callee would deliver every iteration's accesses at iteration 0's
/// address. The invariance predicate must reject it.
TEST(NegativeRegression, CallBatchingRejectsInductionVaryingPointer) {
  const Module generated = make_call_loop_module(make_leaf(), /*varying=*/true);
  Module pruned = generated;
  const PassStats stats = run_instrumentation_pass(pruned, interproc_all());
  EXPECT_TRUE(stats.reconciles());
  EXPECT_EQ(stats.call_batched, 0u);
  EXPECT_EQ(stats.bare_clones, 0u);

  Module base = generated;
  run_instrumentation_pass(base, {});
  RunTotals bt;
  RunTotals pt;
  const std::string bj = run_module_report(base, base.functions.size(), 9, &bt);
  const std::string pj =
      run_module_report(pruned, generated.functions.size(), 9, &pt);
  EXPECT_EQ(bt.delivered, pt.delivered);
  EXPECT_EQ(bj, pj);
}

/// Escape skipping requires the argument register to be stable: after a
/// reassignment, "entry register 0" no longer means the bound buffer.
TEST(NegativeRegression, EscapeRequiresStableArgumentRegister) {
  Module m;
  {
    FunctionBuilder b("shifty", 2);
    const Reg moved = b.add(b.arg(0), b.const_val(8));
    b.move(b.arg(0), moved);  // r0 is no longer the argument
    (void)b.load(b.arg(0), 0);
    b.ret(b.const_val(0));
    m.functions.push_back(b.take());
  }
  ASSERT_EQ(verify(m), "");

  alignas(64) static std::int64_t priv[64];
  OwnershipMap omap;
  omap.record_span(reinterpret_cast<Address>(priv), sizeof priv, 0);
  EscapeBindings eb;
  eb.declare_root("shifty");
  EXPECT_TRUE(eb.bind(omap, "shifty", 0, reinterpret_cast<Address>(priv), 0));

  PassOptions opt;
  opt.escape = &eb;
  const PassStats stats = run_instrumentation_pass(m, opt);
  EXPECT_TRUE(stats.reconciles());
  EXPECT_EQ(stats.escape_skipped, 0u);
  EXPECT_EQ(stats.instrumented_accesses, 1u);
}

TEST(NegativeRegression, BindFromWrongThreadPoisonsForever) {
  alignas(64) static std::int64_t priv[64];
  OwnershipMap omap;
  omap.record_span(reinterpret_cast<Address>(priv), sizeof priv, 0);
  EscapeBindings eb;
  eb.declare_root("f");
  eb.declare_root("g");
  // Owner mismatch: the span belongs to thread 0, the binder claims 1.
  EXPECT_FALSE(eb.bind(omap, "f", 0, reinterpret_cast<Address>(priv), 1));
  EXPECT_EQ(eb.bound_len("f", 0), 0u);
  // A later correct bind cannot resurrect the argument: the promise must
  // hold over ALL invocations.
  EXPECT_FALSE(eb.bind(omap, "f", 0, reinterpret_cast<Address>(priv), 0));
  EXPECT_EQ(eb.bound_len("f", 0), 0u);
  // An address outside every recorded span never binds.
  alignas(64) static std::int64_t other[8];
  EXPECT_FALSE(eb.bind(omap, "g", 0, reinterpret_cast<Address>(other), 0));
  EXPECT_EQ(eb.bound_len("g", 0), 0u);
}

// ---------------------------------------------------------------------------
// The differential fuzz suite: whole-program report equivalence
// ---------------------------------------------------------------------------

TEST(DifferentialFuzz, InterproceduralPruningKeepsReportsBitIdentical) {
  GeneratorOptions gopts;
  gopts.segments = 3;
  gopts.accesses_per_block = 2;
  std::uint64_t total_call_batched = 0;
  std::uint64_t total_clones = 0;
  std::uint64_t seeds_with_cycles = 0;
  std::uint64_t total_exact = 0;
  std::uint64_t total_top = 0;

  for (std::uint64_t seed = 1; seed <= 112; ++seed) {
    gopts.callees = 1 + static_cast<std::uint32_t>(seed % 4);
    const Module generated = generate_module(seed, gopts);
    {
      const CallGraph cg(generated);
      for (std::uint32_t f = 0; f < cg.num_functions(); ++f) {
        if (cg.in_cycle(f)) {
          ++seeds_with_cycles;
          break;
        }
      }
    }

    Module base = generated;
    Module pruned = generated;
    run_instrumentation_pass(base, {});
    const PassStats pstats = run_instrumentation_pass(pruned, interproc_all());
    ASSERT_TRUE(pstats.reconciles()) << "seed " << seed;
    total_call_batched += pstats.call_batched;
    total_clones += pstats.bare_clones;
    total_exact += pstats.callee_summaries;
    total_top += pstats.summary_top;

    const std::int64_t n = 3 + static_cast<std::int64_t>(seed % 13);
    RunTotals bt;
    RunTotals pt;
    const std::string bj =
        run_module_report(base, base.functions.size(), n, &bt);
    const std::string pj =
        run_module_report(pruned, generated.functions.size(), n, &pt);

    EXPECT_EQ(bt.delivered, pt.delivered) << "seed " << seed;
    EXPECT_LE(pt.calls, bt.calls) << "seed " << seed;
    EXPECT_EQ(bj, pj) << "seed " << seed;
  }

  // The sweep must actually exercise the machinery, or the property is
  // vacuous: many seeds batch through calls, many contain recursive SCCs,
  // and both summary outcomes occur.
  EXPECT_GE(total_call_batched, 10u);
  EXPECT_GE(total_clones, 10u);
  EXPECT_GE(seeds_with_cycles, 10u);
  EXPECT_GT(total_exact, 0u);
  EXPECT_GT(total_top, 0u);
}

// ---------------------------------------------------------------------------
// Sync-intrinsic fuzz: the sync-aware layer over the same corpus
// ---------------------------------------------------------------------------

std::uint64_t count_sync_ops(const Module& m) {
  std::uint64_t n = 0;
  for (const Function& fn : m.functions) {
    for (const BasicBlock& bb : fn.blocks) {
      for (const Instr& in : bb.instrs) {
        if (in.op == Opcode::kAcquire || in.op == Opcode::kRelease ||
            in.op == Opcode::kHandoff) {
          ++n;
        }
      }
    }
  }
  return n;
}

/// The generator's stability contract: with sync_segments = 0 the RNG
/// stream is untouched by the sync machinery, so sync-free modules are
/// deterministic and free of intrinsics — the 112-seed suite above keeps
/// meaning what it meant before the intrinsics existed. With it enabled,
/// every module gains sync structure.
TEST(SyncFuzz, SyncFreeGenerationIsDeterministicAndIntrinsicFree) {
  GeneratorOptions gopts;
  gopts.segments = 3;
  gopts.accesses_per_block = 2;
  GeneratorOptions synced = gopts;
  synced.sync_segments = 2;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    gopts.callees = synced.callees = 1 + static_cast<std::uint32_t>(seed % 4);
    const Module a = generate_module(seed, gopts);
    const Module b = generate_module(seed, gopts);
    EXPECT_EQ(to_string(a), to_string(b)) << "seed " << seed;
    EXPECT_EQ(count_sync_ops(a), 0u) << "seed " << seed;
    const Module s = generate_module(seed, synced);
    EXPECT_GT(count_sync_ops(s), 0u) << "seed " << seed;
    EXPECT_EQ(verify(s), "") << "seed " << seed;
  }
}

/// Collapses a report JSON to its invalidation content: the sorted multiset
/// of every "total_invalidations", "finding_count", and per-entry
/// "invalidations" counter. Word histograms and access totals are
/// deliberately excluded — suppressed and sync-pruned accesses skip them by
/// design (that IS the saved work) — so on synced streams only the
/// invalidation accounting is comparable across modes, and it must match
/// EXACTLY: the handoff claim stands in for every pruned first write.
std::string invalidation_signature(const std::string& json) {
  std::ostringstream sig;
  const auto grab = [&](const char* key) {
    std::vector<std::uint64_t> vals;
    const std::string needle = std::string("\"") + key + "\":";
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + 1)) {
      vals.push_back(
          std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10));
    }
    std::sort(vals.begin(), vals.end());
    sig << key << '=';
    for (const std::uint64_t v : vals) sig << v << ',';
    sig << ';';
  };
  grab("total_invalidations");
  grab("finding_count");
  grab("invalidations");
  return sig.str();
}

/// The tentpole differential property for synced streams: modules with
/// acquire/release brackets and handoff runs, pruned with the sync-scoped
/// layer (stacked on the full interprocedural pipeline), lose NO
/// invalidations versus fully-instrumented ones — the runs are sequential
/// and deterministic, so the invalidation accounting must be exactly
/// equal, not merely bounded. Word histograms shrink by design: the static
/// layer drops exactly the deliveries the runtime fast path would have
/// suppressed (the handoff claim leaves each line's automaton in the
/// {owner, W} state, where the dropped accesses are provable no-ops).
TEST(SyncFuzz, SyncScopedPruningLosesNoInvalidations) {
  GeneratorOptions gopts;
  gopts.segments = 3;
  gopts.accesses_per_block = 2;
  gopts.sync_segments = 2;
  std::uint64_t total_sync_skipped = 0;
  std::uint64_t total_dropped = 0;
  std::uint64_t total_syncing_exact = 0;

  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    gopts.callees = 1 + static_cast<std::uint32_t>(seed % 4);
    const Module generated = generate_module(seed, gopts);
    {
      // The syncs bit must actually occur on exact summaries, or the
      // kCall held-range rule above is never exercised adversarially.
      const CallGraph cg(generated);
      const SummaryTable table = summarize_module(generated, cg);
      for (const AccessSummary& s : table.per_function) {
        if (s.exact && s.syncs) ++total_syncing_exact;
      }
    }

    Module base = generated;
    Module pruned = generated;
    run_instrumentation_pass(base, {});
    PassOptions popt = interproc_all();
    popt.sync_scoped = true;
    const PassStats pstats = run_instrumentation_pass(pruned, popt);
    ASSERT_TRUE(pstats.reconciles()) << "seed " << seed;
    total_sync_skipped += pstats.sync_scoped_skipped;

    const std::int64_t n = 3 + static_cast<std::int64_t>(seed % 13);
    RunTotals bt;
    RunTotals pt;
    const std::string bj =
        run_module_report(base, base.functions.size(), n, &bt);
    const std::string pj =
        run_module_report(pruned, generated.functions.size(), n, &pt);

    // Sync-scoped pruning genuinely drops deliveries (unlike batching,
    // which conserves them), so only <= holds — never more, and the
    // detector's invalidation accounting must not notice.
    EXPECT_LE(pt.delivered, bt.delivered) << "seed " << seed;
    total_dropped += bt.delivered - pt.delivered;
    EXPECT_EQ(invalidation_signature(bj), invalidation_signature(pj))
        << "seed " << seed;
  }

  EXPECT_GT(total_sync_skipped, 0u);   // the pruning pass actually fired
  EXPECT_GT(total_dropped, 0u);        // and removed live deliveries
  EXPECT_GT(total_syncing_exact, 0u);  // exact-but-syncing callees occurred
}

/// The runtime-level half of the same proof: suppression must be invisible
/// where it has to be. Each module also runs through a
/// NeverSuppressingReference. On SYNC-FREE streams every thread's epoch
/// stays zero, pack_sync refuses to build an ownership word, and nothing
/// may be suppressed — the report equals the reference's byte for byte. On
/// SYNCED streams the fast path legitimately skips histogram work, so the
/// requirement drops to soundness: identical delivered streams and exactly
/// equal invalidation accounting. Sequential determinism makes both checks
/// exact, not statistical.
TEST(SyncFuzz, SuppressionKnobIsInvisibleWhereItMustBe) {
  GeneratorOptions gopts;
  gopts.segments = 3;
  gopts.accesses_per_block = 2;
  std::uint64_t synced_suppressed = 0;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    gopts.callees = 1 + static_cast<std::uint32_t>(seed % 4);
    const std::int64_t n = 3 + static_cast<std::int64_t>(seed % 13);

    // Sync-free: bit-identical to the reference, nothing suppressed (the
    // epoch-0 policy end to end — no sync event ever happened).
    gopts.sync_segments = 0;
    Module plain = generate_module(seed, gopts);
    run_instrumentation_pass(plain, {});
    RunTotals pt;
    std::uint64_t plain_suppressed = 0;
    NeverSuppressingReference plain_ref;
    const std::string plain_json =
        run_module_report(plain, plain.functions.size(), n, &pt,
                          &plain_suppressed, &plain_ref);
    EXPECT_EQ(pt.delivered, plain_ref.delivered()) << "seed " << seed;
    EXPECT_EQ(plain_suppressed, 0u) << "seed " << seed;
    EXPECT_EQ(plain_json, report_json(plain_ref.session())) << "seed " << seed;

    // Synced: same deliveries, zero lost invalidations.
    gopts.sync_segments = 2;
    Module synced = generate_module(seed, gopts);
    run_instrumentation_pass(synced, {});
    RunTotals st;
    std::uint64_t suppressed = 0;
    NeverSuppressingReference synced_ref;
    const std::string synced_json =
        run_module_report(synced, synced.functions.size(), n, &st,
                          &suppressed, &synced_ref);
    EXPECT_EQ(st.delivered, synced_ref.delivered()) << "seed " << seed;
    EXPECT_EQ(suppressed_accesses(synced_ref.session()), 0u) << "seed " << seed;
    EXPECT_EQ(invalidation_signature(synced_json),
              invalidation_signature(report_json(synced_ref.session())))
        << "seed " << seed;
    synced_suppressed += suppressed;
  }
  // The synced half compares something: the production runs did suppress.
  EXPECT_GT(synced_suppressed, 0u);
}

/// Cross-call handoff evidence: a transferable root argument's verified
/// headroom propagates as a TRANSFER fact into its callees, where it seeds
/// the sync-scoped pass's held set at function entry — so a receiver whose
/// own body contains no kHandoff still gets its claimed accesses pruned.
/// caller(buf, n) hands off [buf, buf+32) and passes buf to recv, whose
/// four 8-byte accesses all land inside the claim.
TEST(SyncFuzz, TransferFactSeedsCrossCallHandoffPruning) {
  Module m;
  {
    FunctionBuilder b("caller", 2);
    b.handoff(b.arg(0), b.const_val(32), 0);
    const Reg a0 = b.fresh_reg();
    const Reg a1 = b.fresh_reg();
    b.move(a0, b.arg(0));
    b.move(a1, b.arg(1));
    b.call(1, a0, 2);
    b.ret(b.const_val(0));
    m.functions.push_back(b.take());
  }
  {
    FunctionBuilder b("recv", 2);
    b.store(b.arg(0), b.const_val(1), 0);
    b.store(b.arg(0), b.const_val(2), 8);
    (void)b.load(b.arg(0), 16);
    (void)b.load(b.arg(0), 24);
    b.ret(b.const_val(0));
    m.functions.push_back(b.take());
  }
  ASSERT_EQ(verify(m), "");

  // Harness promise, verified against the ownership map: caller's arg0 is
  // handoff-managed over a 32-byte span — binds from BOTH threads record
  // headroom instead of poisoning.
  OwnershipMap omap;
  omap.record_span(reinterpret_cast<Address>(g_buffer), 32, 0);
  EscapeBindings eb;
  eb.declare_root("caller");
  eb.mark_transferable("caller", 0);
  ASSERT_TRUE(
      eb.bind(omap, "caller", 0, reinterpret_cast<Address>(g_buffer), 0));
  ASSERT_TRUE(
      eb.bind(omap, "caller", 0, reinterpret_cast<Address>(g_buffer), 1));
  EXPECT_EQ(eb.transfer_len("caller", 0), 32u);
  EXPECT_EQ(eb.bound_len("caller", 0), 0u);  // never licenses escape skipping

  // Without the escape layer there is no transfer fact to seed recv's entry:
  // nothing in recv is inside a held range, so nothing prunes.
  Module plain = m;
  PassOptions sync_only = interproc_all();
  sync_only.sync_scoped = true;
  const PassStats s_plain = run_instrumentation_pass(plain, sync_only);
  ASSERT_TRUE(s_plain.reconciles());
  EXPECT_EQ(s_plain.sync_scoped_skipped, 0u);

  // With it, recv inherits transfer_len = 32 through the call site and all
  // four of its accesses fall to the entry-seeded claim.
  Module pruned = m;
  PassOptions opt = interproc_all();
  opt.sync_scoped = true;
  opt.escape = &eb;
  const PassStats s = run_instrumentation_pass(pruned, opt);
  ASSERT_TRUE(s.reconciles());
  EXPECT_EQ(s.sync_scoped_skipped, 4u);
  EXPECT_EQ(s.escape_skipped, 0u);

  // Soundness: running caller (the only harness-invoked function, honoring
  // the promise) from both threads, the pruned module drops exactly recv's
  // deliveries while the invalidation accounting stays exactly equal — the
  // runtime handoff claim stands in for every pruned access.
  Module base = m;
  run_instrumentation_pass(base, {});
  RunTotals bt;
  RunTotals pt;
  const std::string bj = run_module_report(base, 1, 5, &bt);
  const std::string pj = run_module_report(pruned, 1, 5, &pt);
  EXPECT_EQ(bt.delivered, pt.delivered + 16);  // 4 accesses x 2 tids x 2 rounds
  EXPECT_EQ(invalidation_signature(bj), invalidation_signature(pj));
}

// ---------------------------------------------------------------------------
// Escape soundness oracle
// ---------------------------------------------------------------------------

/// Delivered-access multiset key: (thread, address, width, is_write).
using DeliveryKey = std::tuple<ThreadId, Address, std::uint32_t, bool>;
using DeliveryMap = std::map<DeliveryKey, std::uint64_t>;

void observe_deliveries(Interpreter& interp, DeliveryMap* out) {
  interp.set_delivery_observer([out](Address a, std::uint32_t w, AccessType t,
                                     ThreadId tid, std::uint64_t count) {
    (*out)[DeliveryKey{tid, a, w, t == AccessType::kWrite}] += count;
  });
}

/// Byte-granular shadow of which threads touched which addresses.
void observe_touches(Interpreter& interp, std::map<Address, unsigned>* mask) {
  interp.set_touch_observer(
      [mask](Address a, std::uint32_t w, AccessType, ThreadId tid) {
        for (std::uint32_t i = 0; i < w; ++i) (*mask)[a + i] |= 1u << tid;
      });
}

/// The oracle: every delivery the escape-pruned module dropped (base
/// multiset minus pruned multiset) must land entirely on bytes only ever
/// touched by one thread. Accumulates the dropped access units into
/// `*dropped_out`.
void expect_drops_are_private(const DeliveryMap& base,
                              const DeliveryMap& pruned,
                              const std::map<Address, unsigned>& mask,
                              const std::string& label,
                              std::uint64_t* dropped_out) {
  for (const auto& [key, base_count] : base) {
    const auto it = pruned.find(key);
    const std::uint64_t pruned_count = it == pruned.end() ? 0 : it->second;
    EXPECT_GE(base_count, pruned_count) << label;  // pruning never adds
    if (base_count <= pruned_count) continue;
    *dropped_out += base_count - pruned_count;
    const auto& [tid, addr, width, is_write] = key;
    for (std::uint32_t i = 0; i < width; ++i) {
      const auto mit = mask.find(addr + i);
      if (mit == mask.end()) {
        ADD_FAILURE() << label << ": dropped delivery to untouched byte";
        continue;
      }
      const unsigned bits = mit->second;
      EXPECT_TRUE((bits & (bits - 1)) == 0)
          << label << ": byte " << std::hex << addr + i
          << " touched by thread mask " << bits
          << " yet a delivery to it was dropped as thread-private";
    }
  }
  // The pruned run must not deliver anything the base run didn't.
  for (const auto& [key, count] : pruned) {
    const auto it = base.find(key);
    const std::uint64_t base_count = it == base.end() ? 0 : it->second;
    EXPECT_LE(count, base_count) << label;
  }
}

/// Runs the first `num_fns` functions of `m` under the harness contract:
/// functions with a bound arg0 run on each thread's own private buffer;
/// unbound functions hammer the shared buffer from BOTH threads — the
/// adversarial case the propagation must survive (a bound callee also
/// reachable from an unbound caller loses its confinement).
void run_for_oracle(const Module& m, std::size_t num_fns,
                    const EscapeBindings& eb, Address b0, Address b1,
                    Address shared, std::int64_t n, DeliveryMap* deliveries,
                    std::map<Address, unsigned>* touches) {
  Interpreter interp;  // no session: observers are the entire ground truth
  observe_deliveries(interp, deliveries);
  observe_touches(interp, touches);
  for (std::size_t f = 0; f < num_fns; ++f) {
    const Function& fn = m.functions[f];
    const bool bound = eb.bound_len(fn.name, 0) > 0;
    const std::int64_t args0[] = {
        static_cast<std::int64_t>(bound ? b0 : shared), n};
    const std::int64_t args1[] = {
        static_cast<std::int64_t>(bound ? b1 : shared), n};
    EXPECT_FALSE(interp.run(m, fn, args0, 0).step_limit_exceeded);
    EXPECT_FALSE(interp.run(m, fn, args1, 1).step_limit_exceeded);
  }
}

TEST(EscapeOracle, NoSharedAddressIsEverClassifiedPrivate) {
  GeneratorOptions gopts;
  gopts.segments = 3;
  gopts.accesses_per_block = 2;
  std::uint64_t total_skipped = 0;
  std::uint64_t total_dropped = 0;

  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    gopts.callees = static_cast<std::uint32_t>(seed % 3);
    const Module generated = generate_module(seed, gopts);
    const std::int64_t n = 4 + static_cast<std::int64_t>(seed % 9);
    const std::size_t need =
        8 * (static_cast<std::size_t>(n) + gopts.max_offset_words +
             kCalleeSlackWords);

    // Real allocator plumbing: two per-thread heaps carve spans out of one
    // region and record ownership; each thread's private buffer is confined
    // to its own span by construction. The shared buffer ALSO lives in a
    // recorded span (thread 0's) — an analysis that trusted the ownership
    // map without the harness contract would misclassify it.
    HeapRegion region(8 * 1024 * 1024);
    OwnershipMap omap;
    ThreadHeap h0(region, 64, &omap, 0);
    ThreadHeap h1(region, 64, &omap, 1);
    const Address b0 = h0.allocate(need);
    const Address b1 = h1.allocate(need);
    const Address shared = h0.allocate(need);
    ASSERT_NE(b0, 0u);
    ASSERT_NE(b1, 0u);
    ASSERT_NE(shared, 0u);
    ASSERT_EQ(omap.owner_of(b0, need).value_or(kInvalidThread), 0u);
    ASSERT_EQ(omap.owner_of(b1, need).value_or(kInvalidThread), 1u);

    // The harness contract: even-indexed functions are promised to run on
    // the invoking thread's own buffer; odd-indexed ones make no promise
    // and will be run cross-thread on the shared buffer.
    EscapeBindings eb;
    for (std::size_t f = 0; f < generated.functions.size(); ++f) {
      const std::string& name = generated.functions[f].name;
      eb.declare_root(name);
      if (f % 2 == 0) {
        ASSERT_TRUE(eb.bind(omap, name, 0, b0, 0)) << "seed " << seed;
        ASSERT_TRUE(eb.bind(omap, name, 0, b1, 1)) << "seed " << seed;
      }
    }

    Module base = generated;
    Module pruned = generated;
    run_instrumentation_pass(base, {});
    std::vector<EscapeSkip> skip_log;
    PassOptions opt = interproc_all();
    opt.escape = &eb;
    opt.escape_log = &skip_log;
    const PassStats pstats = run_instrumentation_pass(pruned, opt);
    ASSERT_TRUE(pstats.reconciles()) << "seed " << seed;
    EXPECT_EQ(pstats.escape_skipped, skip_log.size());
    total_skipped += pstats.escape_skipped;

    DeliveryMap base_del;
    DeliveryMap pruned_del;
    std::map<Address, unsigned> touches;
    run_for_oracle(base, generated.functions.size(), eb, b0, b1, shared, n,
                   &base_del, &touches);
    run_for_oracle(pruned, generated.functions.size(), eb, b0, b1, shared, n,
                   &pruned_del, &touches);

    expect_drops_are_private(base_del, pruned_del, touches,
                             "seed " + std::to_string(seed), &total_dropped);
  }
  // The sweep must actually drop deliveries, or the soundness property is
  // vacuously true.
  EXPECT_GT(total_skipped, 0u);
  EXPECT_GT(total_dropped, 0u);
}

TEST(EscapeOracle, CorpusModulesStaySound) {
  const std::filesystem::path dir(PRED_EXAMPLES_IR_DIR);
  ASSERT_TRUE(std::filesystem::exists(dir)) << dir;
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".pir") continue;
    ++files;
    std::ifstream in(entry.path());
    std::stringstream ss;
    ss << in.rdbuf();
    const ParseResult parsed = parse_module(ss.str());
    ASSERT_TRUE(parsed.ok) << entry.path() << ": " << parsed.error;
    const Module& generated = parsed.module;

    HeapRegion region(8 * 1024 * 1024);
    OwnershipMap omap;
    ThreadHeap h0(region, 64, &omap, 0);
    ThreadHeap h1(region, 64, &omap, 1);
    const std::size_t kBuf = 8192;
    const Address b0 = h0.allocate(kBuf);
    const Address b1 = h1.allocate(kBuf);
    const Address b0b = h0.allocate(kBuf);  // second pointer arg, same owner
    const Address b1b = h1.allocate(kBuf);
    ASSERT_NE(b0, 0u);
    ASSERT_NE(b1b, 0u);

    // Corpus convention: arg0 is a buffer; three arguments mean
    // (dst, src, len), so arg1 is a buffer too; otherwise arg1 is a count.
    EscapeBindings eb;
    for (const Function& fn : generated.functions) {
      eb.declare_root(fn.name);
      if (fn.num_args >= 1) {
        ASSERT_TRUE(eb.bind(omap, fn.name, 0, b0, 0)) << fn.name;
        ASSERT_TRUE(eb.bind(omap, fn.name, 0, b1, 1)) << fn.name;
      }
      if (fn.num_args >= 3) {
        ASSERT_TRUE(eb.bind(omap, fn.name, 1, b0b, 0)) << fn.name;
        ASSERT_TRUE(eb.bind(omap, fn.name, 1, b1b, 1)) << fn.name;
      }
    }

    Module base = generated;
    Module pruned = generated;
    run_instrumentation_pass(base, {});
    std::vector<EscapeSkip> skip_log;
    PassOptions opt = interproc_all();
    opt.escape = &eb;
    opt.escape_log = &skip_log;
    const PassStats pstats = run_instrumentation_pass(pruned, opt);
    ASSERT_TRUE(pstats.reconciles()) << entry.path();
    EXPECT_EQ(pstats.escape_skipped, skip_log.size());

    auto make_args = [](const Function& fn, Address buf, Address buf2) {
      std::vector<std::int64_t> args;
      for (std::uint32_t a = 0; a < fn.num_args; ++a) {
        if (a == 0) {
          args.push_back(static_cast<std::int64_t>(buf));
        } else if (a == 1 && fn.num_args >= 3) {
          args.push_back(static_cast<std::int64_t>(buf2));
        } else {
          args.push_back(9);
        }
      }
      return args;
    };

    DeliveryMap base_del;
    DeliveryMap pruned_del;
    std::map<Address, unsigned> touches;
    for (const Module* mp : {&base, &pruned}) {
      DeliveryMap& del = mp == &base ? base_del : pruned_del;
      Interpreter interp;
      observe_deliveries(interp, &del);
      observe_touches(interp, &touches);
      for (std::size_t f = 0; f < generated.functions.size(); ++f) {
        const Function& fn = mp->functions[f];
        const auto a0 = make_args(fn, b0, b0b);
        const auto a1 = make_args(fn, b1, b1b);
        EXPECT_FALSE(interp.run(*mp, fn, a0, 0).step_limit_exceeded);
        EXPECT_FALSE(interp.run(*mp, fn, a1, 1).step_limit_exceeded);
      }
    }
    std::uint64_t dropped = 0;
    expect_drops_are_private(base_del, pruned_del, touches,
                             entry.path().string(), &dropped);
  }
  EXPECT_GE(files, 4u);  // hammer, stencil_chain, memtouch, callgraph_demo
}

// ---------------------------------------------------------------------------
// Escape skipping preserves detector reports
// ---------------------------------------------------------------------------

alignas(64) std::int64_t g_priv0[256];
alignas(64) std::int64_t g_priv1[256];
alignas(64) std::int64_t g_shared[256];

/// Bound functions run only on their owner's private buffer; unbound ones
/// hammer the shared buffer from both threads. Skipped-private accesses can
/// never contribute invalidations (their lines are single-thread by the
/// verified ownership contract), so the reports must stay bit-identical.
std::string run_escape_report(const Module& m, std::size_t num_fns,
                              const EscapeBindings& eb, std::int64_t n,
                              RunTotals* totals) {
  SessionOptions opts;
  opts.runtime.tracking_threshold = 1;
  opts.runtime.report_invalidation_threshold = 1;
  opts.runtime.prediction_enabled = false;
  opts.runtime.set_sampling_rate(1.0);
  opts.heap_size = 4 * 1024 * 1024;
  Session session(opts);
  std::memset(g_priv0, 0, sizeof g_priv0);
  std::memset(g_priv1, 0, sizeof g_priv1);
  std::memset(g_shared, 0, sizeof g_shared);
  session.register_global(g_priv0, sizeof g_priv0, "priv0");
  session.register_global(g_priv1, sizeof g_priv1, "priv1");
  session.register_global(g_shared, sizeof g_shared, "shared");
  // Pre-escalate with each buffer's actual writer so tracker creation
  // order and history seeds are identical across configurations.
  for (std::size_t w = 0; w < 256; w += 8) {
    session.record(&g_priv0[w], AccessType::kWrite, 0, 8);
    session.record(&g_priv1[w], AccessType::kWrite, 1, 8);
    session.record(&g_shared[w], AccessType::kWrite, 0, 8);
  }
  Interpreter interp(&session);
  for (int round = 0; round < 2; ++round) {
    for (std::size_t f = 0; f < num_fns; ++f) {
      const Function& fn = m.functions[f];
      const bool bound = eb.bound_len(fn.name, 0) > 0;
      const Address p0 = reinterpret_cast<Address>(g_priv0);
      const Address p1 = reinterpret_cast<Address>(g_priv1);
      const Address sh = reinterpret_cast<Address>(g_shared);
      const std::int64_t a0[] = {
          static_cast<std::int64_t>(bound ? p0 : sh), n};
      const std::int64_t a1[] = {
          static_cast<std::int64_t>(bound ? p1 : sh), n};
      const auto r0 = interp.run(m, fn, a0, 0);
      const auto r1 = interp.run(m, fn, a1, 1);
      EXPECT_FALSE(r0.step_limit_exceeded);
      EXPECT_FALSE(r1.step_limit_exceeded);
      totals->calls += r0.runtime_calls + r1.runtime_calls;
      totals->delivered += r0.accesses_delivered + r1.accesses_delivered;
    }
  }
  return report_to_json(session.report(), session.runtime().callsites());
}

TEST(EscapeOracle, SkippingPrivateAccessesKeepsReportsBitIdentical) {
  GeneratorOptions gopts;
  gopts.segments = 3;
  gopts.accesses_per_block = 2;
  std::uint64_t total_skipped = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    gopts.callees = static_cast<std::uint32_t>(seed % 3);
    const Module generated = generate_module(seed, gopts);

    OwnershipMap omap;
    omap.record_span(reinterpret_cast<Address>(g_priv0), sizeof g_priv0, 0);
    omap.record_span(reinterpret_cast<Address>(g_priv1), sizeof g_priv1, 1);
    EscapeBindings eb;
    for (std::size_t f = 0; f < generated.functions.size(); ++f) {
      const std::string& name = generated.functions[f].name;
      eb.declare_root(name);
      if (f % 2 == 0) {  // odd-indexed functions stay unbound: shared
        ASSERT_TRUE(
            eb.bind(omap, name, 0, reinterpret_cast<Address>(g_priv0), 0));
        ASSERT_TRUE(
            eb.bind(omap, name, 0, reinterpret_cast<Address>(g_priv1), 1));
      }
    }

    Module base = generated;
    Module pruned = generated;
    run_instrumentation_pass(base, {});
    PassOptions opt = interproc_all();
    opt.escape = &eb;
    const PassStats pstats = run_instrumentation_pass(pruned, opt);
    ASSERT_TRUE(pstats.reconciles()) << "seed " << seed;
    total_skipped += pstats.escape_skipped;

    const std::int64_t n = 5 + static_cast<std::int64_t>(seed % 7);
    RunTotals bt;
    RunTotals pt;
    const std::string bj =
        run_escape_report(base, base.functions.size(), eb, n, &bt);
    const std::string pj =
        run_escape_report(pruned, generated.functions.size(), eb, n, &pt);
    EXPECT_GE(bt.delivered, pt.delivered) << "seed " << seed;
    EXPECT_EQ(bj, pj) << "seed " << seed;
  }
  EXPECT_GT(total_skipped, 0u);  // the sweep must actually skip accesses
}

// ---------------------------------------------------------------------------
// Concurrency: interprocedurally pruned modules under a shared session
// (exercised under ThreadSanitizer in CI)
// ---------------------------------------------------------------------------

TEST(Interprocedural, ConcurrentThreadsShareOneSession) {
  GeneratorOptions gopts;
  gopts.segments = 3;
  gopts.accesses_per_block = 2;
  gopts.callees = 3;
  const Module generated = generate_module(42, gopts);
  Module pruned = generated;
  const PassStats stats = run_instrumentation_pass(pruned, interproc_all());
  ASSERT_TRUE(stats.reconciles());

  SessionOptions opts;
  opts.runtime.tracking_threshold = 1;
  opts.runtime.prediction_enabled = false;
  opts.runtime.set_sampling_rate(1.0);
  opts.heap_size = 4 * 1024 * 1024;
  Session session(opts);
  alignas(64) static std::int64_t buffer[1024];
  std::memset(buffer, 0, sizeof buffer);
  session.register_global(buffer, sizeof buffer, "shared_buffer");

  std::atomic<std::uint64_t> delivered{0};
  auto worker = [&](ThreadId tid) {
    Interpreter interp(&session);
    const std::int64_t args[] = {
        static_cast<std::int64_t>(reinterpret_cast<std::intptr_t>(buffer)),
        11};
    std::uint64_t local = 0;
    for (int round = 0; round < 2; ++round) {
      for (std::size_t f = 0; f < generated.functions.size(); ++f) {
        const auto res = interp.run(pruned, pruned.functions[f], args, tid);
        EXPECT_FALSE(res.step_limit_exceeded);
        local += res.accesses_delivered;
      }
    }
    delivered.fetch_add(local, std::memory_order_relaxed);
  };
  std::thread t0(worker, 0);
  std::thread t1(worker, 1);
  t0.join();
  t1.join();
  EXPECT_GT(delivered.load(), 0u);
  (void)session.report();
}

// ---------------------------------------------------------------------------
// Repaired-module differential fuzz (src/repair/ IR rewrite backend)
// ---------------------------------------------------------------------------

/// False-sharing findings attributed to g_buffer with nonzero impact.
std::size_t fs_findings_on_buffer(const Report& report) {
  std::size_t n = 0;
  for (const ObjectFinding& f : report.findings) {
    if (f.is_false_sharing() && f.impact() > 0 &&
        f.object.name == "gen_buffer") {
      ++n;
    }
  }
  return n;
}

TEST(RepairedModuleFuzz, RewriteKeepsResultsAndRemovesPlantedFindings) {
  // Generated modules with a planted packed-slot region, repaired by
  // apply_repair_rewrite before instrumentation. Two properties per seed:
  //
  //   * equivalence — every function (the random mains AND the slot
  //     kernels) returns bit-identical values, delivers the same number of
  //     accesses, and leaves the buffer in the same state (modulo the
  //     intended slot remap) as the packed module;
  //   * repair — running the slot kernels as distinct threads, the packed
  //     module's detector report contains the planted false-sharing finding
  //     and the rewritten module's report contains none.
  GeneratorOptions gopts;
  gopts.segments = 2;
  gopts.accesses_per_block = 2;
  const std::int64_t n = 8;
  std::uint64_t total_retargeted = 0;

  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const std::uint32_t slots = 2 + static_cast<std::uint32_t>(seed % 3);
    const std::uint32_t stride =
        8u * (1u + static_cast<std::uint32_t>(seed % 2));
    gopts.callees = static_cast<std::uint32_t>(seed % 3);
    gopts.planted_slots = slots;
    gopts.planted_stride = stride;
    // The planted region starts above everything the mains (and their
    // callees, with slack) can touch, so the rewrite moves only slot data.
    gopts.planted_base_words = static_cast<std::uint32_t>(n) +
                               gopts.max_offset_words + kCalleeSlackWords;
    gopts.planted_iters = 6;
    const Module generated = generate_module(seed * 0x9e3779b9ull, gopts);
    const std::size_t num_fns = generated.functions.size();
    const std::size_t base_w = gopts.planted_base_words;
    const std::size_t slot_words = stride / 8;

    Module packed = generated;
    Module padded = generated;
    RepairLayout layout;
    layout.base_arg = 0;
    layout.region_offset = static_cast<std::int64_t>(8 * base_w);
    layout.extent = std::uint64_t{slots} * stride;
    layout.slot_stride = stride;
    layout.pad_to = 64;
    const RepairRewriteStats rs = apply_repair_rewrite(padded, layout);
    ASSERT_GT(rs.retargeted, 0u) << "seed " << seed;
    total_retargeted += rs.retargeted;

    run_instrumentation_pass(packed, {});
    run_instrumentation_pass(padded, {});

    // Equivalence: single-threaded, uninstrumented-session sweep over every
    // original function in both modules.
    const std::int64_t args[] = {
        static_cast<std::int64_t>(reinterpret_cast<std::intptr_t>(g_buffer)),
        n};
    auto sweep = [&](const Module& m, std::vector<std::int64_t>* rets,
                     std::uint64_t* delivered) {
      std::memset(g_buffer, 0, sizeof g_buffer);
      Interpreter interp(nullptr);
      for (std::size_t f = 0; f < num_fns; ++f) {
        const auto res = interp.run(m, m.functions[f], args, 0);
        EXPECT_FALSE(res.step_limit_exceeded) << "seed " << seed;
        rets->push_back(res.return_value);
        *delivered += res.accesses_delivered;
      }
      return std::vector<std::int64_t>(g_buffer, g_buffer + 1024);
    };
    std::vector<std::int64_t> packed_rets;
    std::vector<std::int64_t> padded_rets;
    std::uint64_t packed_delivered = 0;
    std::uint64_t padded_delivered = 0;
    const auto packed_mem = sweep(packed, &packed_rets, &packed_delivered);
    const auto padded_mem = sweep(padded, &padded_rets, &padded_delivered);

    EXPECT_EQ(packed_rets, padded_rets) << "seed " << seed;
    EXPECT_EQ(packed_delivered, padded_delivered) << "seed " << seed;
    for (std::size_t w = 0; w < base_w; ++w) {
      ASSERT_EQ(padded_mem[w], packed_mem[w]) << "seed " << seed
                                              << " word " << w;
    }
    for (std::uint32_t t = 0; t < slots; ++t) {
      for (std::size_t w = 0; w < slot_words; ++w) {
        ASSERT_EQ(padded_mem[base_w + t * 8 + w],
                  packed_mem[base_w + t * slot_words + w])
            << "seed " << seed << " slot " << t << " word " << w;
      }
    }

    // Repair: run the slot kernels as distinct threads under a fully
    // deterministic detector; only the packed layout may report.
    auto detect = [&](const Module& m) {
      SessionOptions opts;
      opts.runtime.tracking_threshold = 1;
      opts.runtime.report_invalidation_threshold = 1;
      opts.runtime.prediction_enabled = false;
      opts.runtime.set_sampling_rate(1.0);
      opts.heap_size = 4 * 1024 * 1024;
      Session session(opts);
      std::memset(g_buffer, 0, sizeof g_buffer);
      session.register_global(g_buffer, sizeof g_buffer, "gen_buffer");
      Interpreter interp(&session);
      for (int round = 0; round < 3; ++round) {
        for (std::uint32_t t = 0; t < slots; ++t) {
          const std::string want = "slot" + std::to_string(t);
          const Function* fn = nullptr;
          for (std::size_t f = 0; f < num_fns; ++f) {
            if (m.functions[f].name == want) fn = &m.functions[f];
          }
          EXPECT_NE(fn, nullptr) << "seed " << seed;
          const auto res = interp.run(m, *fn, args, static_cast<ThreadId>(t));
          EXPECT_FALSE(res.step_limit_exceeded) << "seed " << seed;
        }
      }
      return session.report();
    };
    EXPECT_GT(fs_findings_on_buffer(detect(packed)), 0u) << "seed " << seed;
    EXPECT_EQ(fs_findings_on_buffer(detect(padded)), 0u) << "seed " << seed;
  }
  EXPECT_GT(total_retargeted, 100u);  // the sweep exercised the rewrite
}

}  // namespace
}  // namespace pred::ir
