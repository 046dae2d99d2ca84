//===- runtime/CompilationControl.h - When/what to compile ------*- C++ -*-===//
///
/// \file
/// The Compilation Control of Figure 1: "decides when to compile (or
/// recompile) a method and which optimization level should be used", using
/// "a combination of invocation counters and time sampling to estimate the
/// hotness of a method" so methods that spend significant time in few
/// invocations are anticipated.
///
/// Each promotion level has three invocation triggers, picked by the
/// method's loop class (paper footnote 6): methods that contain loops are
/// compiled sooner than loop-free ones, and many-iteration loops sooner
/// still.
///
/// In collection mode the control additionally issues same-level
/// recompilation requests every N invocations, where N is computed from
/// the first eight invocations so the method accumulates roughly a fixed
/// amount of run time between compilations, clamped to [50, 50000]
/// (section 4.2).
///
//===----------------------------------------------------------------------===//

#ifndef JITML_RUNTIME_COMPILATIONCONTROL_H
#define JITML_RUNTIME_COMPILATIONCONTROL_H

#include "il/LoopInfo.h"
#include "opt/Plan.h"

#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

namespace jitml {

/// A decision to (re)compile a method.
struct CompileRequest {
  uint32_t MethodIndex = 0;
  OptLevel Level = OptLevel::Cold;
  /// True for collection-mode same-level recompiles (modifier exploration).
  bool IsExplorationRecompile = false;
};

class CompilationControl {
public:
  struct Config {
    bool Enabled = true;
    /// Collection mode: issue same-level exploration recompiles.
    bool CollectMode = false;
    /// Invocation triggers: [target level][loop class] — the method is
    /// promoted to `target level` when its invocations since the last
    /// compile reach the trigger. Loop classes order: NoLoops,
    /// MayHaveLoops, ManyIterationLoops (loopier compiles sooner).
    uint32_t InvocationTriggers[NumOptLevels][3] = {
        {12, 6, 3},          // interpret -> cold
        {30, 15, 8},         // cold -> warm
        {600, 300, 150},       // warm -> hot
        {20000, 12000, 8000},  // hot -> veryHot
        {80000, 50000, 30000}, // veryHot -> scorching
    };
    /// Time-sampling triggers (accumulated cycles since last compile);
    /// catches long-running methods with few invocations.
    double CycleTriggers[NumOptLevels] = {4e4, 6e5, 1.2e7, 1.5e8, 1e9};
    /// Collection mode: target accumulated cycles between exploration
    /// recompiles (the paper's "10 ms of running time").
    double ExplorationTargetCycles = 2e5;
    uint32_t ExplorationMinInvocations = 50;
    uint32_t ExplorationMaxInvocations = 50000;
  };

  /// Tracks methods 0 .. NumMethods-1 of one program.
  CompilationControl(const Config &C, uint32_t NumMethods)
      : Cfg(C), States(NumMethods) {}

  /// Reports a finished invocation; returns a compile request when a
  /// trigger fired. \p LC is the method's loop class (computed once by the
  /// VM from the IL).
  std::optional<CompileRequest>
  onInvocationEnd(uint32_t MethodIndex, double Cycles, LoopClass LC);

  /// Marks \p MethodIndex as compiled at \p Level (resets trigger state).
  void noteCompiled(uint32_t MethodIndex, OptLevel Level);

  /// Freezes exploration recompiles for a method (strategy control says
  /// its modifier budget is exhausted).
  void freezeExploration(uint32_t MethodIndex) {
    stateOf(MethodIndex).ExplorationFrozen = true;
  }

  /// Current compiled level, or empty while still interpreted.
  std::optional<OptLevel> levelOf(uint32_t MethodIndex) const;

  /// Total invocations observed for a method.
  uint64_t invocationsOf(uint32_t MethodIndex) const;

  const Config &config() const { return Cfg; }

private:
  struct MethodState {
    bool Compiled = false;
    OptLevel Level = OptLevel::Cold;
    uint64_t Invocations = 0;
    uint64_t SinceCompile = 0;      ///< reset by every compile
    uint64_t SincePromotion = 0;    ///< reset only by level changes
    double CyclesSinceCompile = 0.0;
    double CyclesSincePromotion = 0.0;
    double FirstEightCycles = 0.0;
    uint32_t ExplorationThreshold = 0; ///< 0 until computed
    bool ExplorationFrozen = false;
  };

  MethodState &stateOf(uint32_t M) {
    assert(M < States.size() && "method outside the program");
    return States[M];
  }

  Config Cfg;
  /// Indexed by method; looked up on every invocation.
  std::vector<MethodState> States;
};

} // namespace jitml

#endif // JITML_RUNTIME_COMPILATIONCONTROL_H
