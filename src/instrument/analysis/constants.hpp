// Register-constant analysis: a forward must-analysis on the standard
// three-level lattice (unknown ⊑ const c ⊑ varying), solved with the
// generic engine in dataflow.hpp. A register is constant at a block entry
// iff it holds the same statically-known value on *every* path there.
//
// The pruning passes consume this to recognize loop step constants
// (`i = i + c` with c provably constant on entry to the body) and to fold
// address arithmetic whose operands are constants; `predator-cli analyze`
// reports how many (block, register) facts the analysis proves.
#pragma once

#include <cstdint>
#include <vector>

#include "instrument/analysis/cfg.hpp"
#include "instrument/analysis/dataflow.hpp"

namespace pred::ir {

struct ConstLattice {
  enum class Kind : std::uint8_t { kUnknown, kConst, kVarying };
  Kind kind = Kind::kUnknown;
  std::int64_t value = 0;

  static ConstLattice constant(std::int64_t v) {
    return {Kind::kConst, v};
  }
  static ConstLattice varying() { return {Kind::kVarying, 0}; }
  bool is_const() const { return kind == Kind::kConst; }
  bool operator==(const ConstLattice&) const = default;
};

class ConstantAnalysis {
 public:
  using State = std::vector<ConstLattice>;  // indexed by register

  State entry_state(const Function& fn) const {
    State s(fn.num_regs);
    // Arguments arrive from the caller: varying. Every other register reads
    // as 0 until first defined (the interpreter zero-initializes), so its
    // entry value *is* the constant 0.
    for (std::uint32_t r = 0; r < fn.num_regs; ++r) {
      s[r] = r < fn.num_args ? ConstLattice::varying()
                             : ConstLattice::constant(0);
    }
    return s;
  }

  State top() const { return {}; }  // identity: meet(top, x) == x

  void meet(State* into, const State& from) const {
    if (into->empty()) {
      *into = from;
      return;
    }
    for (std::size_t r = 0; r < into->size(); ++r) {
      ConstLattice& a = (*into)[r];
      const ConstLattice& b = from[r];
      if (a == b || b.kind == ConstLattice::Kind::kUnknown) continue;
      if (a.kind == ConstLattice::Kind::kUnknown) {
        a = b;
      } else {
        a = ConstLattice::varying();  // conflicting constants or varying
      }
    }
  }

  void transfer(const Function& fn, std::uint32_t block, State* state) const {
    for (const Instr& in : fn.blocks[block].instrs) {
      transfer_instr(in, state);
    }
  }

  /// One instruction's effect; exposed so clients can evaluate mid-block
  /// states from a block-entry fixpoint.
  static void transfer_instr(const Instr& in, State* state) {
    State& s = *state;
    auto fold = [&](auto op) -> ConstLattice {
      if (s[in.a].is_const() && s[in.b].is_const()) {
        return ConstLattice::constant(op(s[in.a].value, s[in.b].value));
      }
      return ConstLattice::varying();
    };
    switch (in.op) {
      case Opcode::kConst:
        s[in.dst] = ConstLattice::constant(in.imm);
        break;
      case Opcode::kMove:
        s[in.dst] = s[in.a];
        break;
      case Opcode::kAdd:
        s[in.dst] = fold(wrapping_add);
        break;
      case Opcode::kSub:
        s[in.dst] = fold(wrapping_sub);
        break;
      case Opcode::kMul:
        s[in.dst] = fold(wrapping_mul);
        break;
      case Opcode::kCmpLt:
        s[in.dst] =
            fold([](std::int64_t a, std::int64_t b) { return a < b ? 1 : 0; });
        break;
      case Opcode::kCmpEq:
        s[in.dst] =
            fold([](std::int64_t a, std::int64_t b) { return a == b ? 1 : 0; });
        break;
      case Opcode::kDiv:
      case Opcode::kRem:
        // Folding would need a divide-by-zero proof; stay conservative.
        s[in.dst] = ConstLattice::varying();
        break;
      case Opcode::kLoad:
      case Opcode::kCall:
        s[in.dst] = ConstLattice::varying();
        break;
      default:
        break;  // stores, intrinsics, reports, terminators define nothing
    }
  }

  bool equal(const State& a, const State& b) const { return a == b; }
};

struct ConstantFacts {
  /// Block-entry lattice per reachable block (top for unreachable).
  std::vector<ConstantAnalysis::State> block_entry;
  /// Number of (block, register) pairs proven constant — a coarse "how much
  /// did the analysis learn" statistic for `predator-cli analyze`.
  std::uint64_t facts = 0;
};

ConstantFacts analyze_constants(const Function& fn, const Cfg& cfg);

}  // namespace pred::ir
