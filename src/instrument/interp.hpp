// Mini-IR interpreter: "executes the compiled program". Loads and stores hit
// real process memory (typically buffers from the PREDATOR allocator); the
// instructions the pass marked call into the runtime exactly like the
// paper's inserted function calls do. Multiple interpreter instances may run
// the same Function concurrently on different threads — the Function is
// read-only during execution.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "api/predator.hpp"
#include "instrument/ir.hpp"

namespace pred::ir {

struct ExecResult {
  std::int64_t return_value = 0;
  std::uint64_t steps = 0;          ///< instructions retired
  std::uint64_t runtime_calls = 0;  ///< instrumentation call events issued
  /// Access units delivered to the runtime. A plain instrumented load is
  /// one call and one access; a kReport of count n or a merged access with
  /// compensation extras is one call but many accesses. The pruning passes
  /// reduce runtime_calls while conserving accesses_delivered exactly.
  std::uint64_t accesses_delivered = 0;
  bool step_limit_exceeded = false;
};

class Interpreter {
 public:
  static constexpr int kMaxCallDepth = 64;

  /// `session` may be null (uninstrumented run: the "Original" bars of
  /// Figure 7).
  explicit Interpreter(Session* session = nullptr,
                       std::uint64_t step_limit = 500'000'000)
      : session_(session), step_limit_(step_limit) {}

  /// Runs `fn` with arguments in r0..; `tid` is this logical thread's id for
  /// instrumentation purposes. The function must not contain kCall (use the
  /// module overload for that).
  ExecResult run(const Function& fn, std::span<const std::int64_t> args,
                 ThreadId tid = 0);

  /// Runs a function within `module`, resolving kCall targets. Steps and
  /// runtime calls aggregate across the whole call tree.
  ExecResult run(const Module& module, const Function& fn,
                 std::span<const std::int64_t> args, ThreadId tid = 0);

  /// Ground-truth shadow: called for EVERY executed load, store, and
  /// intrinsic word chunk — instrumented or not — with the concrete address,
  /// width, kind, and thread. This is "what the program actually touched",
  /// independent of what the pass chose to deliver; the escape-soundness
  /// oracle uses it to find addresses shared between threads.
  using TouchObserver =
      std::function<void(Address, std::uint32_t, AccessType, ThreadId)>;
  void set_touch_observer(TouchObserver obs) {
    touch_observer_ = std::move(obs);
  }

  /// Delivery shadow: called for every access delivery that would reach the
  /// runtime (plain instrumented accesses, compensation extras, kReport
  /// batches — the latter once with their whole count). Fires even when the
  /// session is null, so tests can diff the delivered multisets of two
  /// pass configurations without a detector in the loop.
  using DeliveryObserver = std::function<void(
      Address, std::uint32_t, AccessType, ThreadId, std::uint64_t)>;
  void set_delivery_observer(DeliveryObserver obs) {
    delivery_observer_ = std::move(obs);
  }

  /// Handoff shadow: called for every executed kHandoff with a positive
  /// length, with the range and receiving thread of the ownership claim the
  /// session gets. Fires even when the session is null; the delivery
  /// observer never sees these claims.
  using HandoffObserver = std::function<void(Address, std::size_t, ThreadId)>;
  void set_handoff_observer(HandoffObserver obs) {
    handoff_observer_ = std::move(obs);
  }

 private:
  std::int64_t execute(const Module* module, const Function& fn,
                       std::span<const std::int64_t> args, ThreadId tid,
                       int depth, ExecResult& result);

  Session* session_;
  std::uint64_t step_limit_;
  TouchObserver touch_observer_;
  DeliveryObserver delivery_observer_;
  HandoffObserver handoff_observer_;
};

}  // namespace pred::ir
