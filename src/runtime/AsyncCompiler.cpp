//===- runtime/AsyncCompiler.cpp ------------------------------------------===//

#include "runtime/AsyncCompiler.h"

#include "codegen/CodeGenerator.h"
#include "features/FeatureExtractor.h"
#include "il/ILGenerator.h"
#include "il/LoopInfo.h"
#include "opt/Optimizer.h"
#include "runtime/ExecInternal.h"
#include "support/FaultInjection.h"
#include "verify/PassVerifier.h"


using namespace jitml;

PreparedMethod jitml::prepareMethod(const Program &P, uint32_t MethodIndex) {
  PreparedMethod Out;
  Out.StartUs = telemetryNowUs();
  Out.IL = generateIL(P, MethodIndex);
  if (verify::verifyIlMode() != verify::VerifyIlMode::Off)
    Out.IlTrusted = verify::checkAfterPass(*Out.IL, "ilgen", -1);
  LoopInfo::annotateFrequencies(*Out.IL);
  Out.Features = extractFeatures(*Out.IL);
  Out.PrepareUs = telemetryNowUs() - Out.StartUs;
  return Out;
}

std::unique_ptr<NativeMethod>
jitml::finishMethod(PreparedMethod &Prep, const CompilationPlan &Plan,
                    const PlanModifier &Modifier, const CostModel &Cost) {
  OptimizeResult Opt = Prep.IlTrusted
                           ? optimize(*Prep.IL, Plan, Modifier.enabledMask())
                           : OptimizeResult();
  auto Native = std::make_unique<NativeMethod>(
      generateCode(*Prep.IL, Opt.CodegenOptions, Plan.Level, Cost));
  Native->CompileCycles = Opt.CompileCycles + Native->CompileCycles;
  return Native;
}

void jitml::traceCompile(const CompileCompletion &C, int Worker,
                         uint64_t StartUs, uint64_t DurUs) {
  if (!TraceEmitter::global().enabled())
    return;
  TraceEvent E;
  E.Stage = "compile";
  E.StartUs = StartUs;
  E.DurUs = DurUs;
  E.Method = C.MethodIndex;
  E.Level = (int)C.Level;
  E.Worker = Worker;
  E.Cycles = C.CompileCycles;
  E.Detail = C.Installed ? "installed" : "stale";
  E.Ok = C.Installed;
  TraceEmitter::global().record(E);
}

AsyncCompilePipeline::AsyncCompilePipeline(const Program &P,
                                           const CostModel &Cost,
                                           CodeCache &Cache, Config C)
    : Prog(P), Cost(Cost), Cache(Cache), Cfg(C),
      Queue(C.QueueCapacity ? C.QueueCapacity : 1) {
  MetricRegistry &R = MetricRegistry::global();
  Tel.Compiled = &R.counter("pipeline.compiled");
  Tel.Installed = &R.counter("pipeline.installed");
  Tel.Stale = &R.counter("pipeline.stale");
  Tel.BatchPredicts = &R.counter("pipeline.batch_predicts");
  Tel.WorkerBusyUs = &R.counter("pipeline.worker_busy_us");
  Tel.CompileUs = &R.histogram("pipeline.compile");
  unsigned N = Cfg.Workers ? Cfg.Workers : 1;
  Workers.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
}

AsyncCompilePipeline::~AsyncCompilePipeline() { shutdown(false); }

void AsyncCompilePipeline::setModifierHook(ModifierFn H) {
  std::lock_guard<std::mutex> Lock(HookMu);
  Hook = std::move(H);
}

void AsyncCompilePipeline::setBatchModifierHook(BatchModifierFn H) {
  std::lock_guard<std::mutex> Lock(HookMu);
  BatchHook = std::move(H);
}

CompilationQueue::EnqueueResult
AsyncCompilePipeline::request(uint32_t MethodIndex, OptLevel Level,
                              bool IsExploration, uint64_t Priority) {
  return Queue.enqueue(MethodIndex, Level, IsExploration, Priority);
}

std::vector<CompileCompletion> AsyncCompilePipeline::takeCompletions() {
  std::lock_guard<std::mutex> Lock(CompletionMu);
  std::vector<CompileCompletion> Out;
  Out.swap(Completions);
  CompletionsReady.store(false, std::memory_order_release);
  return Out;
}

void AsyncCompilePipeline::drain() { Queue.drain(); }

void AsyncCompilePipeline::shutdown(bool FinishPending) {
  {
    std::lock_guard<std::mutex> Lock(HookMu);
    if (ShutDown)
      return;
    ShutDown = true;
  }
  Queue.close(FinishPending);
  for (std::thread &W : Workers)
    W.join();
  Workers.clear();
}

std::vector<PlanModifier> AsyncCompilePipeline::modifiersForBatch(
    const std::vector<AsyncCompileTask> &Tasks,
    const std::vector<PreparedMethod> &Prepared,
    std::vector<CompileCompletion> &Partial) {
  ModifierFn H;
  BatchModifierFn BH;
  {
    std::lock_guard<std::mutex> Lock(HookMu);
    H = Hook;
    BH = BatchHook;
  }
  std::vector<PlanModifier> Mods(Tasks.size());
  if (!H && !BH)
    return Mods; // null modifiers: the out-of-the-box compiler

  if (BH) {
    // One round trip for the whole backlog.
    std::vector<BatchPredictItem> Items(Tasks.size());
    for (size_t I = 0; I < Tasks.size(); ++I)
      Items[I] = {Tasks[I].MethodIndex, Tasks[I].Level, Prepared[I].Features};
    BatchPredicts.fetch_add(1, std::memory_order_relaxed);
    Tel.BatchPredicts->add();
    try {
      std::vector<PlanModifier> Got = BH(Items);
      if (Got.size() == Tasks.size())
        return Got;
    } catch (...) {
      // fall through to the failure accounting below
    }
    for (CompileCompletion &C : Partial)
      C.HookFailed = true;
    return Mods; // null modifiers for the whole batch
  }

  for (size_t I = 0; I < Tasks.size(); ++I) {
    try {
      Mods[I] = H(Tasks[I].MethodIndex, Tasks[I].Level, Prepared[I].Features);
    } catch (...) {
      Partial[I].HookFailed = true;
      Mods[I] = PlanModifier();
    }
  }
  return Mods;
}

void AsyncCompilePipeline::workerLoop(unsigned WorkerId) {
  for (;;) {
    std::vector<AsyncCompileTask> Tasks = Queue.dequeueBatch(Cfg.MaxPredictBatch);
    if (Tasks.empty())
      return; // closed and drained
    uint64_t BatchStartUs = telemetryNowUs();

    std::vector<PreparedMethod> Prepared;
    Prepared.reserve(Tasks.size());
    for (const AsyncCompileTask &T : Tasks)
      Prepared.push_back(prepareMethod(Prog, T.MethodIndex));
    std::vector<CompileCompletion> Done(Tasks.size());
    std::vector<PlanModifier> Mods = modifiersForBatch(Tasks, Prepared, Done);

    for (size_t I = 0; I < Tasks.size(); ++I) {
      const AsyncCompileTask &T = Tasks[I];
      PreparedMethod &Prep = Prepared[I];
      // Simulated slow worker: the method stays in flight (dequeued but
      // not noteDone), stretching the window drain()/close() must survive.
      uint64_t StallMs = 1;
      if (JITML_FAULT_POINT_ARG("pipeline.worker.stall", StallMs))
        faultDelayMs(StallMs);
      uint64_t FinishStartUs = telemetryNowUs();
      std::unique_ptr<NativeMethod> Native =
          finishMethod(Prep, planForLevel(T.Level), Mods[I], Cost);
      CompileCompletion &C = Done[I];
      C.MethodIndex = T.MethodIndex;
      C.Level = T.Level;
      C.Modifier = Mods[I];
      C.Features = Prep.Features;
      C.CompileCycles = Native->CompileCycles;
      C.IsExplorationRecompile = T.IsExplorationRecompile;
      C.Installed = Cache.install(T.MethodIndex, std::move(Native), T.Ticket);
      uint64_t DurUs = Prep.PrepareUs + (telemetryNowUs() - FinishStartUs);
      Tel.CompileUs->record(DurUs);
      Tel.Compiled->add();
      (C.Installed ? Tel.Installed : Tel.Stale)->add();
      traceCompile(C, (int)WorkerId, Prep.StartUs, DurUs);
      {
        std::lock_guard<std::mutex> Lock(CompletionMu);
        Completions.push_back(C);
        CompletionsReady.store(true, std::memory_order_release);
      }
      // Publish the completion before declaring the task done, so a
      // drain() that observes quiescence also observes every completion.
      Queue.noteDone(T.MethodIndex);
    }
    Tel.WorkerBusyUs->add(telemetryNowUs() - BatchStartUs);
  }
}
