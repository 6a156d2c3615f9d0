#include "instrument/interp.hpp"

#include <cstring>
#include <vector>

#include "common/check.hpp"

namespace pred::ir {

namespace {

// Mini-IR loads and stores are tear-free by specification: concurrency
// tests interpret racy programs from several OS threads (sharing one line
// is the detector's whole subject), so a naturally-aligned access goes
// through a relaxed atomic builtin — same values, no C++-level data race —
// and only a misaligned access falls back to plain memcpy.

template <typename T>
std::int64_t load_as(Address addr) {
  if (addr % alignof(T) == 0) {
    return __atomic_load_n(reinterpret_cast<T*>(addr), __ATOMIC_RELAXED);
  }
  T v;
  std::memcpy(&v, reinterpret_cast<void*>(addr), sizeof(T));
  return v;
}

std::int64_t load_sized(Address addr, std::uint32_t size) {
  switch (size) {
    case 1:
      return load_as<std::int8_t>(addr);
    case 2:
      return load_as<std::int16_t>(addr);
    case 4:
      return load_as<std::int32_t>(addr);
    default:
      return load_as<std::int64_t>(addr);
  }
}

template <typename T>
void store_as(Address addr, std::int64_t value) {
  const auto v = static_cast<T>(value);
  if (addr % alignof(T) == 0) {
    __atomic_store_n(reinterpret_cast<T*>(addr), v, __ATOMIC_RELAXED);
    return;
  }
  std::memcpy(reinterpret_cast<void*>(addr), &v, sizeof(T));
}

void store_sized(Address addr, std::int64_t value, std::uint32_t size) {
  switch (size) {
    case 1:
      store_as<std::int8_t>(addr, value);
      break;
    case 2:
      store_as<std::int16_t>(addr, value);
      break;
    case 4:
      store_as<std::int32_t>(addr, value);
      break;
    default:
      store_as<std::int64_t>(addr, value);
      break;
  }
}

}  // namespace

ExecResult Interpreter::run(const Function& fn,
                            std::span<const std::int64_t> args,
                            ThreadId tid) {
  ExecResult result;
  result.return_value = execute(nullptr, fn, args, tid, 0, result);
  return result;
}

ExecResult Interpreter::run(const Module& module, const Function& fn,
                            std::span<const std::int64_t> args,
                            ThreadId tid) {
  ExecResult result;
  result.return_value = execute(&module, fn, args, tid, 0, result);
  return result;
}

std::int64_t Interpreter::execute(const Module* module, const Function& fn,
                                  std::span<const std::int64_t> args,
                                  ThreadId tid, int depth,
                                  ExecResult& result) {
  PRED_CHECK(args.size() == fn.num_args);
  PRED_CHECK(!fn.blocks.empty());
  PRED_CHECK(depth < kMaxCallDepth);

  std::vector<std::int64_t> regs(fn.num_regs, 0);
  for (std::size_t i = 0; i < args.size(); ++i) regs[i] = args[i];

  std::uint32_t block = 0;
  std::size_t pc = 0;

  auto instrument = [&](Address addr, AccessType type, std::uint32_t size) {
    if (delivery_observer_) delivery_observer_(addr, size, type, tid, 1);
    if (session_) {
      session_->record(reinterpret_cast<void*>(addr), type, tid, size);
      ++result.runtime_calls;
      ++result.accesses_delivered;
    }
  };

  // Bulk delivery (kReport, compensation extras): one call, `count`
  // accesses. The runtime handles each access individually, so the
  // detector's state is exactly as if `count` plain calls had been made.
  auto instrument_n = [&](Address addr, AccessType type, std::uint32_t size,
                          std::uint64_t count) {
    if (count == 0) return;
    if (delivery_observer_) delivery_observer_(addr, size, type, tid, count);
    if (session_) {
      session_->record_n(reinterpret_cast<void*>(addr), type, tid, size,
                         count);
      ++result.runtime_calls;
      result.accesses_delivered += count;
    }
  };

  // regs[a] + imm of a memory operand, wrapping like all IR arithmetic.
  auto operand_address = [&](const Instr& i) {
    return static_cast<Address>(wrapping_add(regs[i.a], i.imm));
  };

  auto touch = [&](Address addr, AccessType type, std::uint32_t size) {
    if (touch_observer_) touch_observer_(addr, size, type, tid);
  };

  while (true) {
    if (result.steps >= step_limit_) {
      result.step_limit_exceeded = true;
      return 0;
    }
    ++result.steps;
    PRED_CHECK(block < fn.blocks.size());
    const auto& instrs = fn.blocks[block].instrs;
    PRED_CHECK(pc < instrs.size());  // blocks must end in a terminator
    const Instr& in = instrs[pc];

    switch (in.op) {
      case Opcode::kConst:
        regs[in.dst] = in.imm;
        break;
      case Opcode::kMove:
        regs[in.dst] = regs[in.a];
        break;
      case Opcode::kAdd:
        regs[in.dst] = wrapping_add(regs[in.a], regs[in.b]);
        break;
      case Opcode::kSub:
        regs[in.dst] = wrapping_sub(regs[in.a], regs[in.b]);
        break;
      case Opcode::kMul:
        regs[in.dst] = wrapping_mul(regs[in.a], regs[in.b]);
        break;
      case Opcode::kDiv:
        PRED_CHECK(regs[in.b] != 0);
        regs[in.dst] = wrapping_div(regs[in.a], regs[in.b]);
        break;
      case Opcode::kRem:
        PRED_CHECK(regs[in.b] != 0);
        regs[in.dst] = wrapping_rem(regs[in.a], regs[in.b]);
        break;
      case Opcode::kCmpLt:
        regs[in.dst] = regs[in.a] < regs[in.b] ? 1 : 0;
        break;
      case Opcode::kCmpEq:
        regs[in.dst] = regs[in.a] == regs[in.b] ? 1 : 0;
        break;
      case Opcode::kLoad: {
        const Address addr = operand_address(in);
        touch(addr, AccessType::kRead, in.size);
        if (in.instrumented) {
          instrument(addr, AccessType::kRead, in.size);
          instrument_n(addr, AccessType::kRead, in.size, in.extra_reads);
          instrument_n(addr, AccessType::kWrite, in.size, in.extra_writes);
        }
        regs[in.dst] = load_sized(addr, in.size);
        break;
      }
      case Opcode::kStore: {
        const Address addr = operand_address(in);
        touch(addr, AccessType::kWrite, in.size);
        if (in.instrumented) {
          instrument(addr, AccessType::kWrite, in.size);
          instrument_n(addr, AccessType::kRead, in.size, in.extra_reads);
          instrument_n(addr, AccessType::kWrite, in.size, in.extra_writes);
        }
        store_sized(addr, regs[in.b], in.size);
        break;
      }
      case Opcode::kCall: {
        PRED_CHECK(module != nullptr);
        const auto callee_index = static_cast<std::size_t>(in.imm);
        PRED_CHECK(callee_index < module->functions.size());
        const Function& callee = module->functions[callee_index];
        std::span<const std::int64_t> call_args(regs.data() + in.a, in.b);
        regs[in.dst] =
            execute(module, callee, call_args, tid, depth + 1, result);
        if (result.step_limit_exceeded) return 0;
        break;
      }
      case Opcode::kMemSet: {
        const Address base = static_cast<Address>(regs[in.a]);
        const auto len = static_cast<std::uint64_t>(regs[in.b]);
        const auto value = static_cast<unsigned char>(in.imm);
        // Word-wise so the instrumentation granularity matches compiled
        // memset loops.
        for (std::uint64_t off = 0; off < len; off += 8) {
          const std::uint32_t chunk =
              static_cast<std::uint32_t>(std::min<std::uint64_t>(8, len - off));
          touch(base + off, AccessType::kWrite, chunk);
          if (in.instrumented) {
            instrument(base + off, AccessType::kWrite, chunk);
          }
          std::memset(reinterpret_cast<void*>(base + off), value, chunk);
        }
        break;
      }
      case Opcode::kMemCopy: {
        const Address dst = static_cast<Address>(regs[in.a]);
        const Address src = static_cast<Address>(regs[in.b]);
        const auto len = static_cast<std::uint64_t>(regs[in.dst]);
        for (std::uint64_t off = 0; off < len; off += 8) {
          const std::uint32_t chunk =
              static_cast<std::uint32_t>(std::min<std::uint64_t>(8, len - off));
          touch(src + off, AccessType::kRead, chunk);
          touch(dst + off, AccessType::kWrite, chunk);
          if (in.instrumented) {
            instrument(src + off, AccessType::kRead, chunk);
            instrument(dst + off, AccessType::kWrite, chunk);
          }
          std::memmove(reinterpret_cast<void*>(dst + off),
                       reinterpret_cast<void*>(src + off), chunk);
        }
        break;
      }
      case Opcode::kReport: {
        if (in.instrumented) {
          const Address addr = operand_address(in);
          // A negative count means the loop never ran (e.g. trip count
          // (n - i + C - 1) / C with n < i): deliver nothing.
          const std::int64_t cnt = regs[in.b];
          if (cnt > 0) {
            instrument_n(addr,
                         in.target ? AccessType::kWrite : AccessType::kRead,
                         in.size, static_cast<std::uint64_t>(cnt));
          }
        }
        break;
      }
      case Opcode::kAcquire:
      case Opcode::kRelease:
        // Epoch bump for the executing thread; touches no memory, so the
        // touch/delivery observers stay silent. Runs whether or not the
        // function was instrumented — sync structure is program semantics,
        // not instrumentation.
        if (session_) session_->sync(tid);
        break;
      case Opcode::kHandoff: {
        const Address addr = operand_address(in);
        const std::int64_t len = regs[in.b];
        if (len > 0) {
          const auto bytes = static_cast<std::size_t>(len);
          if (handoff_observer_) handoff_observer_(addr, bytes, tid);
          if (session_) {
            session_->handoff(reinterpret_cast<void*>(addr), bytes, tid);
          }
        }
        break;
      }
      case Opcode::kBr:
        block = in.target;
        pc = 0;
        continue;
      case Opcode::kCondBr:
        block = regs[in.a] != 0 ? in.target : in.target2;
        pc = 0;
        continue;
      case Opcode::kRet:
        return regs[in.a];
    }
    ++pc;
  }
}

}  // namespace pred::ir
