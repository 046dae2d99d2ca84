//===- runtime/AsyncCompiler.h - Staged compiles, async pipeline -*-C++-*-===//
///
/// \file
/// The staged compile path shared by every compilation, and the background
/// compilation subsystem that runs it off the interpreter thread.
///
/// A compile runs ilgen -> verify -> annotate -> features -> decide
/// (modifier) -> optimize -> codegen on one IL. prepareMethod covers the
/// stages up to the features; the caller then decides the modifier (a
/// strategy hook, a batched model round trip, or an explicit plan), and
/// finishMethod optimizes and generates code on the same IL. So the
/// features a hook decides on are the features the compile records.
///
/// Testarossa compiles on background compilation threads while the
/// application keeps interpreting; AsyncCompilePipeline is that subsystem
/// for the simulated VM. A pool of worker threads drains the
/// CompilationQueue, prepares every dequeued method, decides their
/// modifiers (optionally batched: one bridge round trip covers a whole
/// dequeued backlog), finishes each and publishes the body through
/// CodeCache's atomic install.
///
/// Threading contract: workers touch only immutable inputs (the Program,
/// the plans, the cost model) plus the explicitly thread-safe pieces
/// (CompilationQueue, CodeCache, the hooks the caller installed — a hook
/// shared by several workers must itself be thread-safe, which
/// ResilientModelClient and LearnedStrategyProvider are). Everything else
/// — CompilationControl bookkeeping, VM statistics, JitEventListener
/// callbacks — stays on the interpreter thread: workers append a
/// CompileCompletion record to a buffer, and the VM flushes that buffer
/// from its own dispatch loop (a relaxed flag check per invocation, a
/// lock only when completions are actually pending) through the same
/// bookkeeping that applies synchronous compiles.
///
/// Failure semantics mirror the sync path: a hook that throws (or a model
/// call that falls back) compiles with the unmodified hand-tuned plan and
/// is counted, never propagated.
///
//===----------------------------------------------------------------------===//

#ifndef JITML_RUNTIME_ASYNCCOMPILER_H
#define JITML_RUNTIME_ASYNCCOMPILER_H

#include "codegen/CostModel.h"
#include "features/FeatureVector.h"
#include "il/MethodIL.h"
#include "modifiers/Modifier.h"
#include "runtime/CodeCache.h"
#include "runtime/CompilationQueue.h"
#include "support/Telemetry.h"

#include <functional>
#include <thread>

namespace jitml {

class Program;

/// A method after the stages that precede the strategy decision: ilgen,
/// verification, frequency annotation and feature extraction. The
/// features are computed just prior to optimization (Figure 5 step d) on
/// the IL finishMethod then optimizes.
struct PreparedMethod {
  std::unique_ptr<MethodIL> IL;
  /// False when the verifier rejected the ilgen output (survivable only
  /// under a collecting failure handler); finishMethod then skips the pass
  /// pipeline, which assumes the invariants hold.
  bool IlTrusted = true;
  FeatureVector Features;
  uint64_t StartUs = 0;   ///< telemetry clock when preparation began
  uint64_t PrepareUs = 0; ///< wall time of the prepare stage
};

/// The prepare stage. Reads only immutable state, so any thread may call
/// it.
PreparedMethod prepareMethod(const Program &P, uint32_t MethodIndex);

/// The finish stage: plan-driven optimization and code generation on
/// Prep.IL, which it transforms in place. The body's CompileCycles cover
/// both. Thread-safe like prepareMethod.
std::unique_ptr<NativeMethod> finishMethod(PreparedMethod &Prep,
                                           const CompilationPlan &Plan,
                                           const PlanModifier &Modifier,
                                           const CostModel &Cost);

/// Everything the instrumentation needs to know about one compilation.
/// Features are the ones the modifier was decided on.
struct CompileEvent {
  uint32_t MethodIndex = 0;
  OptLevel Level = OptLevel::Cold;
  PlanModifier Modifier;
  FeatureVector Features;
  double CompileCycles = 0.0;
  bool IsExplorationRecompile = false;
};

/// A finished compilation, sync or async, before the VM's bookkeeping.
struct CompileCompletion : CompileEvent {
  bool Installed = false;  ///< false: lost the install race to a newer ticket
  bool HookFailed = false; ///< modifier hook threw; null modifier was used
};

class AsyncCompilePipeline {
public:
  struct Config {
    unsigned Workers = 2;
    size_t QueueCapacity = 64;
    /// Max requests one worker dequeues (and predicts) per round trip.
    size_t MaxPredictBatch = 8;
  };

  using ModifierFn = std::function<PlanModifier(
      uint32_t MethodIndex, OptLevel Level, const FeatureVector &Features)>;

  /// One entry of a batched prediction request.
  struct BatchPredictItem {
    uint32_t MethodIndex = 0;
    OptLevel Level = OptLevel::Cold;
    FeatureVector Features;
  };
  /// Must return exactly one modifier per item (any other size is treated
  /// as a hook failure for the whole batch).
  using BatchModifierFn = std::function<std::vector<PlanModifier>(
      const std::vector<BatchPredictItem> &Items)>;

  AsyncCompilePipeline(const Program &P, const CostModel &Cost,
                       CodeCache &Cache, Config C);
  ~AsyncCompilePipeline(); ///< shutdown(false)

  /// Set before execution starts; hooks shared by several workers must be
  /// thread-safe.
  void setModifierHook(ModifierFn H);
  void setBatchModifierHook(BatchModifierFn H);

  /// Submits a compile request from the interpreter thread. Never blocks.
  CompilationQueue::EnqueueResult request(uint32_t MethodIndex,
                                          OptLevel Level, bool IsExploration,
                                          uint64_t Priority);

  /// Cheap check the dispatch loop can afford on every invocation.
  bool hasCompletions() const {
    return CompletionsReady.load(std::memory_order_acquire);
  }
  /// Removes and returns all buffered completions.
  std::vector<CompileCompletion> takeCompletions();

  /// Blocks until the queue is empty and no compilation is in flight.
  /// Completions are then all visible to takeCompletions().
  void drain();

  /// Stops the workers. With \p FinishPending, queued work is compiled
  /// first; otherwise it is discarded and only in-flight work finishes.
  /// Idempotent; also called by the destructor.
  void shutdown(bool FinishPending);

  /// Ticket source shared with synchronous installs, so direct compiles
  /// order correctly against queued ones (see CodeCache).
  uint64_t takeTicket() { return Queue.takeTicket(); }

  CompilationQueue::Counters queueCounters() const {
    return Queue.counters();
  }
  /// Batched prediction round trips actually performed by workers.
  uint64_t batchPredictCalls() const {
    return BatchPredicts.load(std::memory_order_relaxed);
  }

private:
  void workerLoop(unsigned WorkerId);
  std::vector<PlanModifier>
  modifiersForBatch(const std::vector<AsyncCompileTask> &Tasks,
                    const std::vector<PreparedMethod> &Prepared,
                    std::vector<CompileCompletion> &Partial);

  const Program &Prog;
  const CostModel &Cost;
  CodeCache &Cache;
  const Config Cfg;
  CompilationQueue Queue;

  mutable std::mutex HookMu;
  ModifierFn Hook;
  BatchModifierFn BatchHook;

  std::mutex CompletionMu;
  std::vector<CompileCompletion> Completions;
  std::atomic<bool> CompletionsReady{false};

  /// Process-wide metrics, resolved once at construction.
  struct TelemetryRefs {
    TelemetryCounter *Compiled, *Installed, *Stale, *BatchPredicts,
        *WorkerBusyUs;
    TelemetryHistogram *CompileUs; ///< per-method worker compile wall us
  };
  TelemetryRefs Tel;

  std::atomic<uint64_t> BatchPredicts{0};
  std::vector<std::thread> Workers;
  bool ShutDown = false; ///< guarded by HookMu (rarely touched)
};

} // namespace jitml

#endif // JITML_RUNTIME_ASYNCCOMPILER_H
