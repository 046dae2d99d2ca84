//===- runtime/VirtualMachine.cpp -----------------------------------------===//

#include "runtime/VirtualMachine.h"

#include "il/ILGenerator.h"
#include "il/LoopInfo.h"
#include "runtime/ExecInternal.h"
#include "support/Telemetry.h"

using namespace jitml;

JitEventListener::~JitEventListener() = default;

VirtualMachine::VirtualMachine(const Program &P, const Config &C)
    : Prog(P), Cfg(C), Clock(C.Clock), Control(C.Control, P.numMethods()) {
  Globals.resize(P.numGlobals());
  Code.reset(P.numMethods());
  LoopClassCache.assign(P.numMethods(), -1);
  if (Cfg.Async.Enabled && Cfg.EnableJit) {
    AsyncCompilePipeline::Config PC;
    PC.Workers = Cfg.Async.Workers;
    PC.QueueCapacity = Cfg.Async.QueueCapacity;
    PC.MaxPredictBatch = Cfg.Async.MaxPredictBatch;
    AsyncPipe = std::make_unique<AsyncCompilePipeline>(Prog, Cfg.Cost, Code,
                                                       PC);
  }
}

VirtualMachine::~VirtualMachine() {
  if (AsyncPipe) {
    // Discard queued work, let in-flight compiles finish, join workers.
    AsyncPipe->shutdown(false);
    flushAsyncCompletions();
  }
}

void VirtualMachine::setModifierHook(ModifierHook H) {
  Hook = std::move(H);
  if (AsyncPipe)
    AsyncPipe->setModifierHook(Hook);
}

void VirtualMachine::setBatchModifierHook(
    AsyncCompilePipeline::BatchModifierFn H) {
  if (AsyncPipe)
    AsyncPipe->setBatchModifierHook(std::move(H));
}

const NativeMethod *VirtualMachine::nativeOf(uint32_t MethodIndex) const {
  return Code.lookup(MethodIndex);
}

LoopClass VirtualMachine::loopClassOf(uint32_t MethodIndex) {
  int8_t &Cached = LoopClassCache[MethodIndex];
  if (Cached < 0) {
    std::unique_ptr<MethodIL> IL = generateIL(Prog, MethodIndex);
    Cached = (int8_t)LoopInfo(*IL).classify();
  }
  return (LoopClass)Cached;
}

ExecResult VirtualMachine::raise(RtExceptionKind Kind) {
  ++Stat.ExceptionsRaised;
  return ExecResult::exception(TheHeap.allocException(Kind));
}

uint64_t VirtualMachine::nextInstallTicket() {
  return AsyncPipe ? AsyncPipe->takeTicket() : ++SyncTicket;
}

void VirtualMachine::compileMethod(uint32_t MethodIndex, OptLevel Level,
                                   bool IsExploration) {
  compileSync(MethodIndex, planForLevel(Level), std::nullopt, IsExploration);
}

void VirtualMachine::compileWithPlan(uint32_t MethodIndex,
                                     const CompilationPlan &Plan,
                                     const PlanModifier &Modifier,
                                     bool IsExploration) {
  compileSync(MethodIndex, Plan, Modifier, IsExploration);
}

void VirtualMachine::compileSync(uint32_t MethodIndex,
                                 const CompilationPlan &Plan,
                                 std::optional<PlanModifier> Modifier,
                                 bool IsExploration) {
  PreparedMethod Prep = prepareMethod(Prog, MethodIndex);
  CompileCompletion C;
  C.MethodIndex = MethodIndex;
  C.Level = Plan.Level;
  C.Features = Prep.Features;
  C.IsExplorationRecompile = IsExploration;
  if (Modifier) {
    C.Modifier = *Modifier;
  } else if (Hook) {
    // "The Strategy Control extension computes the features for the method
    // being compiled" just prior to optimization (Figure 5 step d).
    try {
      C.Modifier = Hook(MethodIndex, Plan.Level, Prep.Features);
    } catch (...) {
      // A misbehaving strategy hook must never take the VM down: compile
      // with the unmodified hand-tuned plan instead.
      C.HookFailed = true;
    }
  }

  uint64_t FinishStartUs = telemetryNowUs();
  std::unique_ptr<NativeMethod> Native =
      finishMethod(Prep, Plan, C.Modifier, Cfg.Cost);
  C.CompileCycles = Native->CompileCycles;
  C.Installed =
      Code.install(MethodIndex, std::move(Native), nextInstallTicket());
  uint64_t DurUs = Prep.PrepareUs + (telemetryNowUs() - FinishStartUs);
  // Name lookups once per process, not per compile.
  static TelemetryCounter &SyncCompiles =
      MetricRegistry::global().counter("vm.sync_compiles");
  static TelemetryHistogram &SyncCompileUs =
      MetricRegistry::global().histogram("vm.sync_compile");
  SyncCompiles.add();
  SyncCompileUs.record(DurUs);
  traceCompile(C, -1, Prep.StartUs, DurUs);
  applyCompile(C, /*Async=*/false);
}

void VirtualMachine::applyCompile(const CompileCompletion &C, bool Async) {
  if (C.Installed)
    Control.noteCompiled(C.MethodIndex, C.Level);
  if (Async) {
    ++(C.Installed ? Stat.AsyncInstalls : Stat.AsyncStaleCompiles);
    // Worker compile cycles never advance the interpreter clock — the
    // background compiler runs on its own core.
    Stat.AsyncCompileCycles += C.CompileCycles;
  } else {
    // Synchronous compilation: the compiler competes with the application
    // for the same core, so compile cycles advance the clock too.
    Clock.advance(C.CompileCycles);
    Stat.CompileCycles += C.CompileCycles;
  }
  ++Stat.Compilations;
  if (C.HookFailed)
    ++Stat.HookFailures;
  if (C.Modifier.raw() == PlanModifier().raw())
    ++Stat.NullModifierCompilations;
  if (C.IsExplorationRecompile)
    ++Stat.ExplorationRecompiles;
  if (Listener)
    Listener->onCompile(C);
}

void VirtualMachine::flushAsyncCompletions() {
  if (!AsyncPipe)
    return;
  for (const CompileCompletion &C : AsyncPipe->takeCompletions())
    applyCompile(C, /*Async=*/true);
}

void VirtualMachine::serviceCompileRequest(const CompileRequest &Req) {
  if (!AsyncPipe) {
    compileMethod(Req.MethodIndex, Req.Level, Req.IsExplorationRecompile);
    return;
  }
  switch (AsyncPipe->request(Req.MethodIndex, Req.Level,
                             Req.IsExplorationRecompile,
                             Control.invocationsOf(Req.MethodIndex))) {
  case CompilationQueue::EnqueueResult::Enqueued:
    ++Stat.AsyncCompileRequests;
    break;
  case CompilationQueue::EnqueueResult::Coalesced:
    ++Stat.AsyncCoalescedRequests;
    break;
  case CompilationQueue::EnqueueResult::Overflow:
    // Backpressure: keep interpreting; the trigger will re-fire.
    ++Stat.AsyncQueueOverflows;
    break;
  case CompilationQueue::EnqueueResult::Closed:
    break;
  }
}

void VirtualMachine::drainCompilations() {
  if (!AsyncPipe)
    return;
  AsyncPipe->drain();
  flushAsyncCompletions();
  // Quiescent (no invocation in progress by contract): old bodies are
  // safe to free now.
  Code.reclaimRetired();
}

CompilationQueue::Counters VirtualMachine::asyncQueueCounters() const {
  return AsyncPipe ? AsyncPipe->queueCounters()
                   : CompilationQueue::Counters();
}

ExecResult VirtualMachine::invoke(uint32_t MethodIndex,
                                  std::vector<Value> Args, unsigned Depth) {
  if (Depth > Cfg.MaxCallDepth)
    return raise(RtExceptionKind::StackOverflow);
  // Apply finished background compilations before dispatching: a relaxed
  // flag check keeps the cost negligible when nothing completed.
  if (AsyncPipe && AsyncPipe->hasCompletions())
    flushAsyncCompletions();
  const MethodInfo &M = Prog.methodAt(MethodIndex);
  assert(Args.size() == M.numArgs() &&
         "invoke with wrong argument count");
  ++Stat.Invocations;

  const NativeMethod *Native = Code.lookup(MethodIndex);
  // Call overhead: leaf-optimized callees skip most of the frame setup.
  charge(Native && Native->Leaf ? Cfg.Cost.LeafCallOverhead
                                : Cfg.Cost.CallOverhead);
  // Synchronized methods lock the receiver (or the class for statics).
  if (M.hasFlag(MF_Synchronized))
    charge(Cfg.Cost.MonitorCost);

  bool Instrument = Cfg.InstrumentMethods && Listener && Native;
  if (Instrument)
    Listener->onMethodEnter(MethodIndex, Clock.readTimestamp());

  double CyclesBefore = Clock.cycles();
  ExecResult Result;
  if (Native) {
    Result = executeNative(*this, *Native, std::move(Args), Depth);
  } else {
    ++Stat.InterpretedInvocations;
    Result = interpretMethod(*this, MethodIndex, std::move(Args), Depth);
  }
  double Spent = Clock.cycles() - CyclesBefore;

  if (M.hasFlag(MF_Synchronized))
    charge(Cfg.Cost.MonitorCost);
  if (Instrument)
    Listener->onMethodExit(MethodIndex, Clock.readTimestamp(),
                           Result.Exceptional);

  // Compilation control: invocation counters + time sampling.
  if (Cfg.EnableJit) {
    std::optional<CompileRequest> Req =
        Control.onInvocationEnd(MethodIndex, Spent, loopClassOf(MethodIndex));
    if (Req) {
      bool Allowed = true;
      if (Req->IsExplorationRecompile && Gate)
        Allowed = Gate(Req->MethodIndex);
      if (Allowed)
        serviceCompileRequest(*Req);
      else
        Control.freezeExploration(Req->MethodIndex);
    }
  }
  return Result;
}

ExecResult VirtualMachine::run(const std::vector<Value> &Args) {
  assert(Prog.entryMethod() >= 0 && "program has no entry method");
  return invoke((uint32_t)Prog.entryMethod(), Args, 0);
}
