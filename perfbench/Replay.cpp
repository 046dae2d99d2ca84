//===- perfbench/Replay.cpp - Compile-stage replay ------------------------===//
//
// Replays recorded compilations stage by stage (ilgen -> features ->
// decide -> optimize -> codegen) under spans, for the per-layer metrics of
// traced learn runs.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "codegen/CodeGenerator.h"
#include "features/FeatureExtractor.h"
#include "il/ILGenerator.h"
#include "il/LoopInfo.h"
#include "opt/Optimizer.h"
#include "support/Telemetry.h"

namespace perfbench {

//===----------------------------------------------------------------------===//
// Compile-stage replay
//===----------------------------------------------------------------------===//

void replayCompiles(const Program &P,
                    const std::vector<RecordedCompile> &Compiles,
                    LearnedStrategyProvider *Decide, int64_t Group,
                    ReplayTotals &T, Outcome &Out) {
  MetricRegistry &R = MetricRegistry::global();
  uint64_t Hits0 = R.counter("opt.memo.hits").value();
  uint64_t Misses0 = R.counter("opt.memo.misses").value();
  CostModel Cost;
  for (const RecordedCompile &C : Compiles) {
    Scope Root("replay.compile", Group);
    double T0 = nowSeconds();
    std::unique_ptr<MethodIL> IL;
    {
      Scope S("il.generate", Group);
      IL = generateIL(P, C.Method);
      LoopInfo::annotateFrequencies(*IL);
    }
    double T1 = nowSeconds();
    T.IlNodes += IL->countLiveNodes();
    FeatureVector F;
    {
      Scope S("features.extract", Group);
      F = extractFeatures(*IL);
    }
    double T2 = nowSeconds();
    uint64_t Bits = C.ModifierBits;
    if (Decide) {
      Scope S("jitml.predict", Group);
      Bits = Decide->modifierFor(C.Level, F).raw();
    }
    double T3 = nowSeconds();
    OptimizeResult Opt;
    {
      Scope S("opt.optimize", Group);
      Opt = optimize(*IL, planForLevel(C.Level),
                     PlanModifier::fromRaw(Bits).enabledMask());
    }
    double T4 = nowSeconds();
    NativeMethod Native;
    {
      Scope S("codegen.generate", Group);
      Native = generateCode(*IL, Opt.CodegenOptions, C.Level, Cost);
    }
    double T5 = nowSeconds();

    T.IlGenerateS += T1 - T0;
    T.FeaturesExtractS += T2 - T1;
    T.PredictS += T3 - T2;
    T.OptimizeS += T4 - T3;
    T.CodegenS += T5 - T4;
    T.EntriesRun += Opt.EntriesRun;
    T.EntriesSkipped += Opt.EntriesSkippedInapplicable + Opt.EntriesDisabled;
    T.Insts += Native.totalInsts();
    ++T.Compiles;

    std::string What = "replay of method " + std::to_string(C.Method) +
                       " at " + optLevelName(C.Level);
    Out.check(F == C.Features, What + ": features differ from the VM's");
    Out.check(Bits == C.ModifierBits,
              What + ": decided modifier differs from the VM's");
    Out.check(Opt.CompileCycles + Native.CompileCycles == C.CompileCycles,
              What + ": compile cycles differ from the VM's");
  }
  T.MemoHits += R.counter("opt.memo.hits").value() - Hits0;
  T.MemoMisses += R.counter("opt.memo.misses").value() - Misses0;
}

void reportReplay(const ReplayTotals &T, double PerRuns,
                  std::map<std::string, double> &M) {
  M["il.generate_s"] = T.IlGenerateS / PerRuns;
  M["il.nodes"] = (double)T.IlNodes / PerRuns;
  M["features.extract_s"] = T.FeaturesExtractS / PerRuns;
  M["jitml.predict_s"] = T.PredictS / PerRuns;
  M["opt.optimize_s"] = T.OptimizeS / PerRuns;
  M["opt.entries_run"] = (double)T.EntriesRun / PerRuns;
  M["opt.entries_skipped"] = (double)T.EntriesSkipped / PerRuns;
  uint64_t Memo = T.MemoHits + T.MemoMisses;
  M["opt.memo_hit_rate"] = Memo ? (double)T.MemoHits / (double)Memo : 0.0;
  M["codegen.generate_s"] = T.CodegenS / PerRuns;
  M["codegen.insts"] = (double)T.Insts / PerRuns;
  M["replay.compiles"] = (double)T.Compiles / PerRuns;
}

} // namespace perfbench
