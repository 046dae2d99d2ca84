//===- perfbench/Learn.cpp - The offline Figure-5 pipeline ----------------===//
//
// Every iteration runs the learning pipeline from scratch: collect the five
// training programs under the randomized and progressive searches, round
// trip each data set through the binary archive format in the private
// temp directory, then merge, rank, normalize and train the 15
// leave-one-out models.
//
// A run cycles through four data draws derived from the seed (training
// program variants and collection seed): one draw's trained models shift
// the simulated figures of its start-ups together, so the figures are
// taken over all four draws. Iterations of one draw repeat identical work
// (their model digests must match), so they differ only in how busy the
// host was; wall_s averages the draws' fastest iterations.
//
// Untraced iterations take the library's end-to-end path
// (collectFromWorkload / trainLeaveOneOut). Traced iterations take the
// decomposed path below, which calls the same public stages one by one
// under spans; its models must be bit-identical to the end-to-end ones.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "collect/Archive.h"
#include "collect/CollectionListener.h"
#include "support/Rng.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

constexpr OptLevel LearnedLevels[3] = {OptLevel::Cold, OptLevel::Warm,
                                       OptLevel::Hot};

bool sameRecord(const CollectionRecord &A, const CollectionRecord &B) {
  return A.SignatureId == B.SignatureId && A.Level == B.Level &&
         A.ModifierBits == B.ModifierBits && A.Features == B.Features &&
         A.CompileCycles == B.CompileCycles && A.RunCycles == B.RunCycles &&
         A.Invocations == B.Invocations &&
         A.DiscardedSamples == B.DiscardedSamples;
}

bool writeBytes(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  bool Ok = std::fwrite(Bytes.data(), 1, Bytes.size(), F) == Bytes.size();
  return std::fclose(F) == 0 && Ok;
}

bool readBytes(const std::string &Path, std::vector<uint8_t> &Bytes) {
  Bytes.clear();
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  uint8_t Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Bytes.insert(Bytes.end(), Buf, Buf + N);
  return std::fclose(F) == 0;
}

/// Per-layer totals of one decomposed iteration (sums over its tasks).
struct LayerTotals {
  double SessionS = 0, RunS = 0, EncodeS = 0, DecodeS = 0, MergeS = 0,
         RankS = 0, NormalizeS = 0, TrainS = 0;
  uint64_t Records = 0, Bytes = 0, Compilations = 0, Interpreted = 0,
           Iterations = 0, ShrinkRestarts = 0;
  uint64_t Ranked[3] = {}, Classes[3] = {};
  double CompileUs = 0, PoolWaitUs = 0, PoolBusyUs = 0;
};

constexpr unsigned NumDraws = 4;

/// One data draw: training-program variants and a collection seed, with
/// the references its learned start-ups are checked against.
struct Draw {
  std::vector<WorkloadSpec> Training;
  CollectConfig CC;
  std::vector<Program> Programs;
  std::vector<Invocation> Reference, Baseline;
  std::vector<uint64_t> ClockSeeds;
  /// Fold digests of the draw's first iteration.
  std::vector<uint64_t> Digests;
};

/// One pass of learned start-ups: the held-out cells' simulated figures,
/// every start-up's host time, and the hook and ledger totals.
struct Validation {
  std::vector<double> Speedups, Ratios;
  std::vector<double> StartupUs; ///< VM construction to the end of run()
  double WallS = 0.0;
  double HookS = 0.0;
  uint64_t Predictions = 0;
  double LevelCycles[NumOptLevels] = {};
  double AppCycles = 0.0;
  /// Each VM's compile events (set-major), kept for the stage replay.
  std::vector<std::vector<RecordedCompile>> Compiles;
};

/// Validation passes after each untraced iteration: two, so that a run's
/// pooled start-up latencies have ten samples beyond their 99th
/// percentile.
constexpr unsigned ValidationPasses = 2;

class Learn : public Workload {
public:
  void setup(const Options &O) override;
  void run(const Options &O, Outcome &Out) override;

private:
  std::vector<ModelSet> endToEnd(const Draw &D, Outcome &Out);
  std::vector<ModelSet> decomposed(const Draw &D, Outcome &Out,
                                   LayerTotals &T,
                                   std::vector<std::vector<RecordedCompile>>
                                       &Compiles);
  IntermediateDataSet collectSession(const Draw &D, const WorkloadSpec &Spec,
                                     SearchStrategy Strategy, LayerTotals &T,
                                     std::vector<RecordedCompile> &Compiles,
                                     Outcome &Out, std::mutex &Mu);
  /// Learned start-ups of the draw's training programs under its freshly
  /// trained models, one VM per (model set, program), each a fresh
  /// VirtualMachine for one iteration with a hook wrapping
  /// LearnedStrategyProvider: every start-up is checked against the
  /// interpreter and its simulated-cycle ledger checked from outside; the
  /// held-out cells supply the Fig. 6/7 figures. Keep records the compile
  /// events.
  Validation validate(const Options &O, const Draw &D,
                      const std::vector<ModelSet> &Sets, Outcome &Out,
                      bool Keep);

  std::vector<Draw> Draws;
  std::string TmpDir;
};

void Learn::setup(const Options &O) {
  TmpDir = O.TmpDir;
  Draws.assign(O.Tiny ? 1 : NumDraws, Draw());
  for (unsigned K = 0; K < Draws.size(); ++K) {
    Draw &D = Draws[K];
    uint64_t Seed = subSeed(O.Seed, K);
    D.Training = trainingVariants(Seed);
    D.CC = collectConfigFor(Seed);
    for (const WorkloadSpec &S : D.Training)
      D.Programs.push_back(buildWorkload(S));
    size_t N = D.Programs.size();
    D.ClockSeeds.resize(N);
    D.Reference.assign(N, Invocation());
    D.Baseline.assign(N, Invocation());
    for (size_t I = 0; I < N; ++I)
      D.ClockSeeds[I] = mix64(Seed ^ (0x1ea4ull + I));
    parallelFor(N, [&](size_t I) {
      D.Reference[I] = interpretOnly(D.Programs[I]);
      D.Baseline[I] = baselineRun(D.Programs[I], D.ClockSeeds[I]);
    });
  }
}

std::vector<ModelSet> Learn::endToEnd(const Draw &D, Outcome &Out) {
  const std::vector<WorkloadSpec> &Training = D.Training;
  const CollectConfig &CC = D.CC;
  std::vector<IntermediateDataSet> Per(Training.size());
  parallelFor(Training.size(),
              [&](size_t B) { Per[B] = collectFromWorkload(Training[B], CC); });

  // The archive round trip through the temp directory: each data set is
  // re-encoded with a fresh signature dictionary, written, read back and
  // decoded; the decoded records feed the training.
  std::vector<IntermediateDataSet> Decoded(Training.size());
  for (size_t B = 0; B < Training.size(); ++B) {
    StringInterner Dict;
    std::vector<CollectionRecord> Records;
    Records.reserve(Per[B].size());
    for (const TaggedRecord &T : Per[B].Records) {
      CollectionRecord R = T.Record;
      R.SignatureId = Dict.intern(T.Signature);
      Records.push_back(R);
    }
    std::string Path = TmpDir + "/learn-" + Training[B].Code + ".jmla";
    std::vector<uint8_t> Bytes = encodeArchive(Dict, Records), Back;
    ArchiveData Archive;
    bool Ok = writeBytes(Path, Bytes) && readBytes(Path, Back) &&
              decodeArchive(Back, Archive) &&
              Archive.Records.size() == Records.size();
    for (size_t I = 0; Ok && I < Records.size(); ++I)
      Ok = sameRecord(Archive.Records[I], Records[I]) &&
           Archive.Signatures[Archive.Records[I].SignatureId] ==
               Per[B].Records[I].Signature;
    Out.check(Ok && !Records.empty(),
              Training[B].Code + ": archive does not decode to its records");
    Decoded[B] = unarchive(Archive, Training[B].Code);
  }
  return trainLeaveOneOut(Decoded, TrainConfig());
}

IntermediateDataSet Learn::collectSession(
    const Draw &D, const WorkloadSpec &Spec, SearchStrategy Strategy,
    LayerTotals &T, std::vector<RecordedCompile> &Compiles, Outcome &Out,
    std::mutex &Mu) {
  // The collection session of jitml::collectWithStrategy, stage by stage.
  Scope Session("collect.session");
  const CollectConfig &CC = D.CC;
  double T0 = nowSeconds();
  Program P = buildWorkload(Spec);
  StrategyConfig SC;
  SC.Strategy = Strategy;
  SC.ModifiersPerLevel = CC.ModifiersPerLevel;
  SC.UsesPerModifier = CC.UsesPerModifier;
  SC.MaxRecompilesPerMethod = CC.MaxRecompilesPerMethod;
  SC.Seed = mix64(CC.Seed ^ Spec.Seed ^ (uint64_t)Strategy);
  StrategyControl Control(SC);

  VirtualMachine::Config Cfg;
  Cfg.Control.CollectMode = true;
  Cfg.Control.ExplorationTargetCycles = CC.ExplorationTargetCycles;
  Cfg.Control.ExplorationMinInvocations = CC.ExplorationMinInvocations;
  for (unsigned LC = 0; LC < 3; ++LC)
    Cfg.Control.InvocationTriggers[1][LC] *= CC.DwellMultiplier;
  Cfg.Control.CycleTriggers[1] *= CC.DwellMultiplier;
  Cfg.InstrumentMethods = true;
  Cfg.Clock.Seed = mix64(CC.Seed ^ Spec.Seed);
  VirtualMachine VM(P, Cfg);
  CollectionListener Listener(P);
  LedgerListener Ledger(&Listener, true);
  VM.setListener(&Ledger);
  VM.setModifierHook([&Control](uint32_t Method, OptLevel Level,
                                const FeatureVector &) {
    return Control.modifierFor(Method, Level);
  });
  VM.setRecompileGate([&Control](uint32_t Method) {
    if (Control.methodFrozen(Method) || Control.explorationExhausted())
      return false;
    Control.noteRecompile(Method);
    return true;
  });

  double RunS = 0.0;
  bool Crashed = false;
  for (unsigned I = 0; I < CC.Iterations && !Crashed; ++I) {
    Scope Run("runtime.run");
    double R0 = nowSeconds();
    Crashed = VM.run({Value::ofI((int64_t)I)}).Exceptional;
    RunS += nowSeconds() - R0;
  }
  Listener.finalize();
  double T1 = nowSeconds();
  std::string What = Spec.Code + "/" +
                     (Strategy == SearchStrategy::Randomized ? "randomized"
                                                             : "progressive");
  std::vector<uint8_t> Bytes;
  {
    Scope S("collect.archive_encode");
    Bytes = encodeArchive(Listener.dictionary(), Listener.records());
  }
  double T2 = nowSeconds();
  std::string Path = "/learn-" + Spec.Code + "-" +
                     std::to_string((unsigned)Strategy) + ".jmla";
  std::vector<uint8_t> Back;
  bool Ok;
  {
    Scope S("collect.archive_io");
    Ok = writeBytes(TmpDir + Path, Bytes) && readBytes(TmpDir + Path, Back);
  }
  double T3 = nowSeconds();
  ArchiveData Archive;
  IntermediateDataSet Data;
  {
    Scope S("collect.archive_decode");
    Ok = Ok && decodeArchive(Back, Archive);
    if (Ok)
      Data = unarchive(Archive, Spec.Code);
  }
  double T4 = nowSeconds();

  // The format stores cycle counts as rounded integers; everything else
  // must come back exactly.
  const std::vector<CollectionRecord> &Recs = Listener.records();
  Ok = Ok && Archive.Records.size() == Recs.size();
  for (size_t I = 0; Ok && I < Recs.size(); ++I) {
    CollectionRecord Want = Recs[I];
    Want.CompileCycles = (double)std::llround(Want.CompileCycles);
    Want.RunCycles = (double)std::llround(Want.RunCycles);
    Ok = sameRecord(Archive.Records[I], Want);
  }

  // Outcome and the totals are shared by the pool's tasks.
  std::lock_guard<std::mutex> Lock(Mu);
  Out.check(!Crashed, What + ": collection session threw");
  checkLedger(Ledger, VM.stats(), Out, What);
  Out.check(Ok && !Recs.empty(),
            What + ": archive does not decode to its records");
  T.SessionS += T1 - T0;
  T.RunS += RunS;
  T.EncodeS += T2 - T1;
  T.DecodeS += T4 - T3;
  T.Records += Recs.size();
  T.Bytes += Bytes.size();
  T.Compilations += VM.stats().Compilations;
  T.Interpreted += VM.stats().InterpretedInvocations;
  Compiles.insert(Compiles.end(), Ledger.Compiles.begin(),
                  Ledger.Compiles.end());
  return Data;
}

std::vector<ModelSet> Learn::decomposed(
    const Draw &D, Outcome &Out, LayerTotals &T,
    std::vector<std::vector<RecordedCompile>> &Compiles) {
  const std::vector<WorkloadSpec> &Training = D.Training;
  std::mutex Mu;
  int64_t Root = Tracer::current();
  std::vector<IntermediateDataSet> Per(Training.size());
  Compiles.assign(Training.size(), {});
  parallelFor(Training.size(), [&](size_t B) {
    Scope Bench("collect.benchmark", (int64_t)B, Root);
    static constexpr SearchStrategy Strategies[2] = {
        SearchStrategy::Randomized, SearchStrategy::Progressive};
    for (SearchStrategy S : Strategies)
      Per[B].append(
          collectSession(D, Training[B], S, T, Compiles[B], Out, Mu));
  });

  std::vector<ModelSet> Sets(Training.size());
  parallelFor(Training.size(), [&](size_t Fold) {
    Scope FoldSpan("train.fold", (int64_t)Fold, Root);
    double M0 = nowSeconds();
    IntermediateDataSet Merged;
    {
      Scope S("mldata.merge", (int64_t)Fold);
      Merged = mergeExcluding(Per, {Training[Fold].Code});
    }
    double MergeS = nowSeconds() - M0, RankS = 0, NormS = 0, TrainS = 0;
    ModelSet &Set = Sets[Fold];
    Set.Name = "H" + std::to_string(Fold + 1);
    Set.LeftOutBenchmark = Training[Fold].Code;
    TrainConfig TC;
    uint64_t Ranked[3] = {}, Classes[3] = {}, Iters = 0, Restarts = 0;
    for (unsigned K = 0; K < 3; ++K) {
      OptLevel Level = LearnedLevels[K];
      double A = nowSeconds();
      std::vector<RankedInstance> R;
      {
        Scope S("mldata.rank", (int64_t)Fold);
        R = rankRecords(Merged, Level, TC.Selection, TC.Triggers);
      }
      double B = nowSeconds();
      RankS += B - A;
      Ranked[K] = R.size();
      if (R.size() < 8)
        continue; // trainModelSet's threshold: not enough signal
      LevelModel &LM = Set.Levels[(unsigned)Level];
      std::vector<NormalizedInstance> Instances;
      {
        Scope S("mldata.normalize", (int64_t)Fold);
        LM.Scale = Scaling::fit(R);
        Instances = normalizeInstances(R, LM.Scale, LM.Labels);
      }
      double C = nowSeconds();
      NormS += C - B;
      TrainReport Report;
      {
        Scope S("svm.train", (int64_t)Fold);
        LM.Model = trainCrammerSinger(Instances, TC.Svm, &Report);
      }
      TrainS += nowSeconds() - C;
      LM.Valid = true;
      Classes[K] = Report.NumClasses;
      Iters += Report.Iterations;
      Restarts += Report.ShrinkRestarts;
    }
    std::lock_guard<std::mutex> Lock(Mu);
    T.MergeS += MergeS;
    T.RankS += RankS;
    T.NormalizeS += NormS;
    T.TrainS += TrainS;
    for (unsigned K = 0; K < 3; ++K) {
      T.Ranked[K] += Ranked[K];
      T.Classes[K] += Classes[K];
    }
    T.Iterations += Iters;
    T.ShrinkRestarts += Restarts;
  });
  return Sets;
}

Validation Learn::validate(const Options &O, const Draw &D,
                          const std::vector<ModelSet> &Sets, Outcome &Out,
                          bool Keep) {
  Validation V;
  double Start = nowSeconds();
  for (const ModelSet &Set : Sets) {
    LearnedStrategyProvider Prov(Set);
    for (size_t I = 0; I < D.Programs.size(); ++I) {
      int64_t Group = (int64_t)V.StartupUs.size();
      Scope Inv("vm.invocation", Group);
      double Begin = nowSeconds();
      VirtualMachine::Config Cfg;
      Cfg.Clock.Seed = D.ClockSeeds[I];
      VirtualMachine VM(D.Programs[I], Cfg);
      LedgerListener Ledger(nullptr, Keep);
      VM.setListener(&Ledger);
      VM.setModifierHook([&](uint32_t, OptLevel Level,
                             const FeatureVector &F) {
        Scope S("jitml.hook", Group);
        double T0 = nowSeconds();
        PlanModifier M = Prov.modifierFor(Level, F);
        V.HookS += nowSeconds() - T0;
        ++V.Predictions;
        return M;
      });
      ExecResult E;
      {
        Scope Run("runtime.run", Group);
        E = VM.run({Value::ofI(0)});
      }
      V.StartupUs.push_back((nowSeconds() - Begin) * 1e6);
      const VirtualMachine::Stats &S = VM.stats();
      int64_t Ret = E.Exceptional ? 0 : E.Ret.I;
      if (O.Injected == Inject::FlippedChecksum && Group == 0)
        Ret ^= 1;
      std::string What = D.Training[I].Code + "/" + Set.Name;
      Out.check(!E.Exceptional && Ret == D.Reference[I].Ret &&
                    S.HookFailures == 0,
                What + ": learned start-up disagrees with the interpreter");
      checkLedger(Ledger, S, Out, What);
      V.AppCycles += S.AppCycles;
      for (unsigned L = 0; L < NumOptLevels; ++L)
        V.LevelCycles[L] += Ledger.LevelCycles[L];
      if (Keep)
        V.Compiles.push_back(std::move(Ledger.Compiles));
      if (Set.LeftOutBenchmark != D.Training[I].Code)
        continue; // only the held-out fold's cell is an honest speedup
      const VirtualMachine::Stats &B = D.Baseline[I].Stats;
      V.Speedups.push_back(B.totalCycles() / S.totalCycles());
      V.Ratios.push_back(S.CompileCycles / B.CompileCycles);
    }
  }
  V.WallS = nowSeconds() - Start;
  return V;
}

void Learn::run(const Options &O, Outcome &Out) {
  for (const Draw &D : Draws)
    for (size_t I = 0; I < D.Programs.size(); ++I)
      Out.check(!D.Reference[I].Exceptional && !D.Baseline[I].Exceptional &&
                    D.Baseline[I].Ret == D.Reference[I].Ret,
                D.Training[I].Code + ": baseline JIT disagrees with the "
                                     "interpreter");

  auto checkModels = [&](Draw &D, std::vector<ModelSet> &Sets,
                         const char *Path) {
    for (const ModelSet &S : Sets)
      for (OptLevel L : LearnedLevels)
        Out.check(S.hasModelFor(L), S.Name + " did not train its " +
                                        optLevelName(L) + " model");
    if (O.Injected == Inject::PerturbedDigest && !D.Digests.empty() &&
        Sets[0].hasModelFor(OptLevel::Cold))
      Sets[0].Levels[0].Model.weight(0, 0) += 1e-9;
    bool First = D.Digests.empty();
    for (size_t F = 0; F < Sets.size(); ++F) {
      uint64_t Digest = modelDigest(Sets[F]);
      if (First)
        D.Digests.push_back(Digest);
      else
        Out.check(Digest == D.Digests[F],
                  Sets[F].Name + ": model digest differs between runs of "
                                 "one seed (" + Path + " path)");
    }
  };

  std::vector<std::vector<double>> Walls(Draws.size());
  std::vector<double> AllWalls, TracedWalls;
  std::vector<LayerTotals> Layers;
  std::vector<std::vector<RecordedCompile>> Compiles;
  // The first decomposed iteration (of the first draw): its models and
  // collection compiles feed the traced start-ups and the stage replay,
  // so their counts repeat exactly across runs of one seed.
  std::vector<ModelSet> ReplaySets;
  std::vector<std::vector<RecordedCompile>> ReplayCompiles;
  // Figures of the first validation pass of every draw, then of the
  // repeated first draw; pass times per draw and start-up latencies of
  // every pass.
  std::vector<double> Speedups, Ratios, RepeatSpeedups, RepeatRatios;
  std::vector<std::vector<double>> PassWalls(Draws.size());
  std::vector<double> StartupUs;
  size_t PassStartups = 0;
  MetricRegistry &MR = MetricRegistry::global();
  TelemetryHistogram &SyncUs = MR.histogram("vm.sync_compile");
  TelemetryHistogram &PoolWait = MR.histogram("pool.task_wait");
  TelemetryCounter &PoolBusy = MR.counter("pool.busy_us");

  // Untraced runs cover every draw, then repeat the first (its models
  // and figures must come back identical). Traced runs alternate an
  // end-to-end and a decomposed iteration of one draw.
  size_t NumD = Draws.size();
  size_t MinIters = O.Trace ? 2 : NumD + 1;
  double Deadline = nowSeconds() + O.Seconds;
  for (size_t N = 0; N < MinIters || nowSeconds() < Deadline; ++N) {
    bool TraceThis = O.Trace && N % 2 == 1;
    size_t K = (O.Trace ? N / 2 : N) % NumD;
    Draw &D = Draws[K];
    std::vector<ModelSet> Sets;
    if (TraceThis) {
      LayerTotals T;
      uint64_t Sync0 = SyncUs.snapshot().Sum, Wait0 = PoolWait.snapshot().Sum,
               Busy0 = PoolBusy.value();
      Tracer::get().setEnabled(true);
      double T0 = nowSeconds();
      {
        Scope It("learn.iteration", (int64_t)K);
        Sets = decomposed(D, Out, T, Compiles);
      }
      TracedWalls.push_back(nowSeconds() - T0);
      Tracer::get().setEnabled(false);
      T.CompileUs = (double)(SyncUs.snapshot().Sum - Sync0);
      T.PoolWaitUs = (double)(PoolWait.snapshot().Sum - Wait0);
      T.PoolBusyUs = (double)(PoolBusy.value() - Busy0);
      Layers.push_back(T);
      if (ReplaySets.empty()) {
        ReplaySets = Sets;
        ReplayCompiles = Compiles;
      }
      checkModels(D, Sets, "decomposed");
    } else {
      double T0 = nowSeconds();
      Sets = endToEnd(D, Out);
      double Wall = nowSeconds() - T0;
      Walls[K].push_back(Wall);
      AllWalls.push_back(Wall);
      checkModels(D, Sets, "end-to-end");
      for (unsigned P = 0; !O.Trace && !O.Probe && P < ValidationPasses;
           ++P) {
        Validation V = validate(O, D, Sets, Out, false);
        PassWalls[K].push_back(V.WallS);
        PassStartups = V.StartupUs.size();
        StartupUs.insert(StartupUs.end(), V.StartupUs.begin(),
                         V.StartupUs.end());
        if (P == 0 && N < NumD) {
          Speedups.insert(Speedups.end(), V.Speedups.begin(),
                          V.Speedups.end());
          Ratios.insert(Ratios.end(), V.Ratios.begin(), V.Ratios.end());
        } else if (P == 0 && N == NumD) {
          RepeatSpeedups = V.Speedups;
          RepeatRatios = V.Ratios;
        }
      }
    }
    if ((O.Tiny && N + 1 >= MinIters) || (O.Probe && N + 1 >= NumD))
      break;
  }

  char Buf[200];
  std::snprintf(Buf, sizeof(Buf),
                "learn: %zu draws, %zu end-to-end + %zu decomposed "
                "iterations",
                NumD, AllWalls.size(), TracedWalls.size());
  Out.Notes.push_back(Buf);

  std::map<std::string, double> &M = Out.Metrics;
  if (!O.Trace) {
    // The first draw's held-out cells lead the lists (five folds).
    size_t Rep = RepeatSpeedups.size();
    Out.check(Rep > 0 && Rep <= Speedups.size() &&
                  std::equal(RepeatSpeedups.begin(), RepeatSpeedups.end(),
                             Speedups.begin()) &&
                  std::equal(RepeatRatios.begin(), RepeatRatios.end(),
                             Ratios.begin()),
              "simulated cycles changed between runs of one seed");
    double WallS = 0.0;
    std::string PerDraw = "learn: wall_s per draw (fastest, median of n):";
    for (const std::vector<double> &W : Walls) {
      WallS += fastest(W) / (double)NumD;
      std::snprintf(Buf, sizeof(Buf), " %.4f, %.4f (%zu)", fastest(W),
                    median(W), W.size());
      PerDraw += Buf;
    }
    Out.Notes.push_back(PerDraw);
    M["wall_s"] = WallS;
    M["sim_startup_speedup"] = geomean(Speedups);
    M["sim_compile_ratio"] = geomean(Ratios);
    // Here a request is one learned start-up under the freshly trained
    // models: start-ups per second over the draws' fastest
    // validation passes (passes of one draw repeat identical work), and
    // each start-up's latency over every pass.
    double PassS = 0.0;
    for (const std::vector<double> &W : PassWalls)
      PassS += fastest(W) / (double)NumD;
    M["serve_rps"] = (double)PassStartups / PassS;
    M["serve_p50_us"] = percentile(StartupUs, 0.50);
    M["serve_p99_us"] = percentile(StartupUs, 0.99);
    std::snprintf(Buf, sizeof(Buf), "learn: %zu start-up latencies",
                  StartupUs.size());
    Out.Notes.push_back(Buf);
    return;
  }

  double N = (double)Layers.size();
  LayerTotals Sum;
  for (const LayerTotals &T : Layers) {
    Sum.SessionS += T.SessionS;
    Sum.RunS += T.RunS;
    Sum.EncodeS += T.EncodeS;
    Sum.DecodeS += T.DecodeS;
    Sum.MergeS += T.MergeS;
    Sum.RankS += T.RankS;
    Sum.NormalizeS += T.NormalizeS;
    Sum.TrainS += T.TrainS;
    Sum.Records += T.Records;
    Sum.Bytes += T.Bytes;
    Sum.Compilations += T.Compilations;
    Sum.Interpreted += T.Interpreted;
    Sum.Iterations += T.Iterations;
    Sum.ShrinkRestarts += T.ShrinkRestarts;
    Sum.CompileUs += T.CompileUs;
    Sum.PoolWaitUs += T.PoolWaitUs;
    Sum.PoolBusyUs += T.PoolBusyUs;
    for (unsigned K = 0; K < 3; ++K) {
      Sum.Ranked[K] += T.Ranked[K];
      Sum.Classes[K] += T.Classes[K];
    }
  }
  M["collect.session_s"] = Sum.SessionS / N;
  M["collect.records"] = (double)Sum.Records / N;
  M["collect.archive_encode_s"] = Sum.EncodeS / N;
  M["collect.archive_decode_s"] = Sum.DecodeS / N;
  M["collect.archive_bytes"] = (double)Sum.Bytes / N;
  M["mldata.merge_s"] = Sum.MergeS / N;
  M["mldata.rank_s"] = Sum.RankS / N;
  M["mldata.normalize_s"] = Sum.NormalizeS / N;
  M["svm.train_s"] = Sum.TrainS / N;
  M["svm.iterations"] = (double)Sum.Iterations / N;
  M["svm.shrink_restarts"] = (double)Sum.ShrinkRestarts / N;
  for (unsigned K = 0; K < 3; ++K) {
    std::string L = optLevelName(LearnedLevels[K]);
    M["mldata.ranked_instances." + L] = (double)Sum.Ranked[K] / N;
    M["svm.classes." + L] = (double)Sum.Classes[K] / N;
  }
  M["pool.task_wait_us"] = Sum.PoolWaitUs / N;
  M["pool.busy_us"] = Sum.PoolBusyUs / N;
  M["runtime.run_s"] = Sum.RunS / N;
  M["runtime.compile_s"] = Sum.CompileUs * 1e-6 / N;
  M["runtime.compilations"] = (double)Sum.Compilations / N;
  M["runtime.interpreted_invocations"] = (double)Sum.Interpreted / N;
  M["runtime.self_s"] = (Sum.RunS - Sum.CompileUs * 1e-6) / N;
  M["trace.overhead_s"] = median(TracedWalls) - median(AllWalls);
  M["trace.overhead_share"] =
      (median(TracedWalls) - median(AllWalls)) / median(AllWalls);

  // A traced validation pass under the first decomposed iteration's
  // models: the hook and the simulated-cycle ledger of learned start-ups.
  const Draw &D = Draws[0];
  Tracer::get().setEnabled(true);
  Validation V = validate(O, D, ReplaySets, Out, true);
  Tracer::get().setEnabled(false);
  M["jitml.hook_s"] = V.HookS;
  M["jitml.predictions"] = (double)V.Predictions;
  M["sim.compile_cycles.cold"] = V.LevelCycles[(unsigned)OptLevel::Cold];
  M["sim.compile_cycles.warm"] = V.LevelCycles[(unsigned)OptLevel::Warm];
  M["sim.compile_cycles.hot"] = V.LevelCycles[(unsigned)OptLevel::Hot];
  M["sim.app_cycles"] = V.AppCycles;

  // Stage replay of that iteration's collection compiles, under the
  // exploration modifiers they were compiled with, and of the traced
  // start-ups' compiles, each decided again by its model set.
  ReplayTotals T;
  Tracer::get().setEnabled(true);
  for (size_t B = 0; B < D.Training.size(); ++B)
    replayCompiles(D.Programs[B], ReplayCompiles[B], nullptr, (int64_t)B, T,
                   Out);
  size_t Vm = 0;
  for (const ModelSet &Set : ReplaySets) {
    LearnedStrategyProvider Prov(Set);
    for (size_t I = 0; I < D.Programs.size(); ++I, ++Vm)
      replayCompiles(D.Programs[I], V.Compiles[Vm], &Prov, (int64_t)Vm, T,
                     Out);
  }
  Tracer::get().setEnabled(false);
  reportReplay(T, 1.0, M);
}

} // namespace

std::unique_ptr<Workload> makeLearn() { return std::make_unique<Learn>(); }

} // namespace perfbench
