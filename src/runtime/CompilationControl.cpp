//===- runtime/CompilationControl.cpp -------------------------------------===//

#include "runtime/CompilationControl.h"

#include <algorithm>

using namespace jitml;

std::optional<CompileRequest>
CompilationControl::onInvocationEnd(uint32_t MethodIndex, double Cycles,
                                    LoopClass LC) {
  if (!Cfg.Enabled)
    return std::nullopt;
  MethodState &S = stateOf(MethodIndex);
  ++S.Invocations;
  ++S.SinceCompile;
  ++S.SincePromotion;
  S.CyclesSinceCompile += Cycles;
  S.CyclesSincePromotion += Cycles;
  if (S.Invocations <= 8)
    S.FirstEightCycles += Cycles;

  unsigned LCIdx = (unsigned)LC;
  assert(LCIdx < 3 && "unexpected loop class");

  // Promotion: next level's invocation trigger or the time-sampling
  // trigger for the current tier.
  unsigned Tier = S.Compiled ? (unsigned)S.Level + 1 : 0;
  if (Tier < NumOptLevels) {
    // Exploration recompiles reset SinceCompile but must not starve
    // promotion, so promotion watches its own counters.
    bool Promote =
        S.SincePromotion >= Cfg.InvocationTriggers[Tier][LCIdx] ||
        S.CyclesSincePromotion >= Cfg.CycleTriggers[Tier];
    if (Promote) {
      CompileRequest Req;
      Req.MethodIndex = MethodIndex;
      Req.Level = (OptLevel)Tier;
      return Req;
    }
  }

  // Collection mode: same-level exploration recompiles.
  if (Cfg.CollectMode && S.Compiled && !S.ExplorationFrozen) {
    if (S.ExplorationThreshold == 0 && S.Invocations >= 8) {
      double PerInvocation = S.FirstEightCycles / 8.0;
      double Wanted = PerInvocation > 0.0
                          ? Cfg.ExplorationTargetCycles / PerInvocation
                          : Cfg.ExplorationMaxInvocations;
      S.ExplorationThreshold = (uint32_t)std::clamp(
          Wanted, (double)Cfg.ExplorationMinInvocations,
          (double)Cfg.ExplorationMaxInvocations);
    }
    if (S.ExplorationThreshold != 0 &&
        S.SinceCompile >= S.ExplorationThreshold) {
      CompileRequest Req;
      Req.MethodIndex = MethodIndex;
      Req.Level = S.Level;
      Req.IsExplorationRecompile = true;
      return Req;
    }
  }
  return std::nullopt;
}

void CompilationControl::noteCompiled(uint32_t MethodIndex, OptLevel Level) {
  MethodState &S = stateOf(MethodIndex);
  bool LevelChanged = !S.Compiled || S.Level != Level;
  S.Compiled = true;
  S.Level = Level;
  S.SinceCompile = 0;
  S.CyclesSinceCompile = 0.0;
  if (LevelChanged) {
    S.SincePromotion = 0;
    S.CyclesSincePromotion = 0.0;
  }
}

std::optional<OptLevel>
CompilationControl::levelOf(uint32_t MethodIndex) const {
  if (MethodIndex >= States.size() || !States[MethodIndex].Compiled)
    return std::nullopt;
  return States[MethodIndex].Level;
}

uint64_t CompilationControl::invocationsOf(uint32_t MethodIndex) const {
  return MethodIndex < States.size() ? States[MethodIndex].Invocations : 0;
}
