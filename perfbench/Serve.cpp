//===- perfbench/Serve.cpp - The model-serving daemon under VM traffic ----===//
//
// A ModelServer runs in-process on a Unix socket in the private temp
// directory. Four closed-loop client threads each play successive VMs: a
// VM connects, says Hello, replays one recorded compile-request stream
// through its own ResilientModelClient, then says Bye. The streams were
// recorded in set-up from real learned start-ups of seeded program
// variants. Beside that read load, a bundle hot-reload every 250 ms
// installs a new model version, which invalidates the versioned cache.
//
// The generator's seeded variants saturate at a few hundred distinct
// (level, feature-hash) keys, far below the daemon's default 4096-entry
// cache, so the daemon's cache is sized to half the recorded working set:
// the cache misses, and the batcher and the model carry real load.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "bridge/ResilientClient.h"
#include "bridge/Transports.h"
#include "serve/Server.h"
#include "support/Rng.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <thread>
#include <unordered_set>

namespace perfbench {

namespace {

constexpr unsigned NumClients = 4;
constexpr double ReloadPeriodS = 0.25;
constexpr unsigned NumWindows = 10;

struct Request {
  OptLevel Level = OptLevel::Cold;
  FeatureVector Features;
  uint64_t Expected = 0; ///< ServeModel::predict of the reference model
};

/// What one closed-loop window measured.
struct Window {
  double WallS = 0.0;
  uint64_t Requests = 0;
  std::vector<double> LatencyUs;  ///< every request but a VM's first
  std::vector<double> ConnectUs;  ///< a VM's first request (connect + Hello)
  std::vector<double> SessionS;   ///< Hello .. Bye per VM
  std::vector<double> ReloadMs;
  uint64_t ReloadFailed = 0;
  std::map<std::string, uint64_t> Counters; ///< registry deltas
};

class Serve : public Workload {
public:
  void setup(const Options &O) override;
  void run(const Options &O, Outcome &Out) override;

private:
  Window window(const Options &O, double Seconds, Outcome &Out);

  ModelSet Reference;
  std::string BundlePath;
  std::vector<std::vector<Request>> Streams;
  std::vector<size_t> Order; ///< stream replay order for this seed
  size_t DistinctKeys = 0;
  size_t CacheEntries = 0; ///< daemon cache: half the distinct keys
  double SimSpeedup = 0.0, SimCompileRatio = 0.0;
  /// The first set-up's model digest; later set-ups must reproduce it.
  uint64_t FirstDigest = 0;
  bool SetupRepeats = true;
  std::atomic<int64_t> NextVm{0};
};

void Serve::setup(const Options &O) {
  // The served model: one set trained on all five training programs.
  Reference = trainModelSet(mergeAll(collectCanonical()), "serve",
                            TrainConfig());
  uint64_t Digest = modelDigest(Reference);
  if (FirstDigest == 0)
    FirstDigest = Digest;
  SetupRepeats &= Digest == FirstDigest;

  BundlePath = O.TmpDir + "/serve.bundle";
  if (std::FILE *F = std::fopen(BundlePath.c_str(), "w")) {
    std::string Text = ModelRegistry::bundleText(Reference);
    std::fwrite(Text.data(), 1, Text.size(), F);
    std::fclose(F);
  }

  // Request streams from learned start-ups of seeded program variants,
  // twelve of each suite program. A VM asks the daemon only at the levels
  // the model covers.
  std::vector<WorkloadSpec> Suite = suiteVariants(O.Seed);
  size_t Variants = O.Tiny ? 8 : 240;
  ServeModel Model;
  Model.Set = Reference;
  Streams.assign(Variants, {});
  std::vector<double> Speedups(Variants), Ratios(Variants);
  parallelFor(Variants, [&](size_t V) {
    WorkloadSpec Spec =
        variantSpec(Suite[V % Suite.size()], mix64(O.Seed + V / Suite.size()));
    Program P = buildWorkload(Spec);
    uint64_t ClockSeed = mix64(O.Seed ^ (0x5e4eull + V));
    LearnedStrategyProvider Prov(Reference);
    VirtualMachine::Config Cfg;
    Cfg.Clock.Seed = ClockSeed;
    VirtualMachine VM(P, Cfg);
    std::vector<Request> &S = Streams[V];
    VM.setModifierHook([&](uint32_t, OptLevel Level, const FeatureVector &F) {
      std::optional<uint64_t> Want = Model.predict(Level, F);
      if (Reference.hasModelFor(Level) && Want)
        S.push_back({Level, F, *Want});
      return Prov.modifierFor(Level, F);
    });
    VM.run({Value::ofI(0)});
    Invocation Base = baselineRun(P, ClockSeed);
    Speedups[V] = Base.Stats.totalCycles() / VM.stats().totalCycles();
    Ratios[V] = VM.stats().CompileCycles / Base.Stats.CompileCycles;
  });
  SimSpeedup = geomean(Speedups);
  SimCompileRatio = geomean(Ratios);

  std::unordered_set<uint64_t> Keys;
  for (const std::vector<Request> &S : Streams)
    for (const Request &R : S)
      Keys.insert(mix64(R.Features.hash() ^ (uint64_t)R.Level));
  DistinctKeys = Keys.size();
  CacheEntries = std::max<size_t>(1, DistinctKeys / 2);

  Order.resize(Streams.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  Rng R(mix64(O.Seed ^ 0x0dde5ull));
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[R.nextBelow(I)]);
}

const char *const DaemonCounters[] = {
    "serve.batches",      "serve.batch_entries", "serve.coalesced",
    "serve.cache_hits",   "serve.cache_misses",  "serve.shed",
    "serve.reload_failed", "serve.accepts",      "bridge.retries",
    "bridge.timeouts",    "bridge.fallbacks"};

Window Serve::window(const Options &O, double Seconds, Outcome &Out) {
  Window W;
  MetricRegistry &MR = MetricRegistry::global();
  std::map<std::string, uint64_t> Before;
  for (const char *Name : DaemonCounters)
    Before[Name] = MR.counter(Name).value();

  ModelRegistry Registry;
  Out.check(Registry.reloadFromFile(BundlePath),
            "initial bundle did not install");
  ServeConfig Cfg;
  Cfg.SocketPath = O.TmpDir + "/serve.sock";
  Cfg.CacheCapacity = CacheEntries;
  ModelServer Server(Registry, Cfg);
  if (!Server.start()) {
    Out.check(false, "daemon did not start on " + Cfg.SocketPath);
    return W;
  }

  std::mutex Mu; // guards W, Out and the reload thread's stop flag
  std::condition_variable Cv;
  bool Stop = false;
  std::thread Reloader([&] {
    std::unique_lock<std::mutex> Lock(Mu);
    while (!Cv.wait_for(Lock, std::chrono::duration<double>(ReloadPeriodS),
                        [&] { return Stop; })) {
      Lock.unlock();
      double T0 = nowSeconds();
      bool Ok = Registry.reloadFromFile(BundlePath);
      double Ms = (nowSeconds() - T0) * 1e3;
      Lock.lock();
      W.ReloadMs.push_back(Ms);
      W.ReloadFailed += !Ok;
    }
  });

  ResilientModelClient::Config ClientCfg;
  // Every request reaches the daemon: its cache and batcher carry the
  // load, and a transient refusal is never cached.
  ClientCfg.CacheCapacity = 0;
  ClientCfg.CacheErrorReplies = false;
  std::string Path = Cfg.SocketPath;

  double Start = nowSeconds(), Deadline = Start + Seconds;
  std::vector<std::thread> Clients;
  for (unsigned C = 0; C < NumClients; ++C)
    Clients.emplace_back([&] {
      Window Mine;
      uint64_t Attempted = 0, Failed = 0;
      std::vector<std::string> Failures;
      while (nowSeconds() < Deadline) {
        int64_t Vm = NextVm.fetch_add(1);
        const std::vector<Request> &Stream =
            Streams[Order[(size_t)Vm % Order.size()]];
        Scope Session("serve.session", Vm);
        double S0 = nowSeconds();
        ResilientModelClient Client(
            [Path]() -> std::unique_ptr<Transport> {
              return SocketTransport::connect(Path);
            },
            ClientCfg);
        for (size_t I = 0; I < Stream.size(); ++I) {
          const Request &Req = Stream[I];
          std::optional<uint64_t> Got;
          double T0 = nowSeconds();
          {
            Scope S("serve.request", Vm);
            Got = Client.requestModifier(Req.Level, Req.Features);
          }
          double Us = (nowSeconds() - T0) * 1e6;
          (I == 0 ? Mine.ConnectUs : Mine.LatencyUs).push_back(Us);
          if (O.Injected == Inject::CorruptedModifier && Vm == 0 && I == 0 &&
              Got)
            *Got ^= 1;
          ++Attempted;
          if (!Got || *Got != Req.Expected) {
            ++Failed;
            if (Failures.size() < 8)
              Failures.push_back("VM " + std::to_string(Vm) + " request " +
                                 std::to_string(I) +
                                 (Got ? ": wrong modifier" : ": fallback"));
          }
        }
        Client.bye();
        BridgeCounters BC = Client.counters();
        // Retries and timeouts are failed operations even when a later
        // attempt answered.
        Failed += BC.Retries + BC.Timeouts;
        Mine.SessionS.push_back(nowSeconds() - S0);
        Mine.Requests += Stream.size();
      }
      std::lock_guard<std::mutex> Lock(Mu);
      W.Requests += Mine.Requests;
      W.LatencyUs.insert(W.LatencyUs.end(), Mine.LatencyUs.begin(),
                         Mine.LatencyUs.end());
      W.ConnectUs.insert(W.ConnectUs.end(), Mine.ConnectUs.begin(),
                         Mine.ConnectUs.end());
      W.SessionS.insert(W.SessionS.end(), Mine.SessionS.begin(),
                        Mine.SessionS.end());
      Out.Attempted += Attempted;
      Out.Failed += Failed;
      for (const std::string &F : Failures)
        Out.Notes.push_back("FAIL: " + F);
    });
  for (std::thread &T : Clients)
    T.join();
  W.WallS = nowSeconds() - Start;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stop = true;
  }
  Cv.notify_all();
  Reloader.join();
  Server.stop();
  Out.check(W.ReloadFailed == 0, "a bundle hot-reload failed");
  for (const char *Name : DaemonCounters)
    W.Counters[Name] = MR.counter(Name).value() - Before[Name];
  return W;
}

void Serve::run(const Options &O, Outcome &Out) {
  Out.check(SetupRepeats, "served model differs between set-ups of one "
                          "seed");
  for (const std::vector<Request> &S : Streams)
    Out.check(!S.empty(), "a recorded VM made no model query");
  char Buf[200];
  std::snprintf(Buf, sizeof(Buf),
                "serve: %zu recorded VMs, %zu distinct (level, feature) keys "
                "vs a %zu-entry daemon cache",
                Streams.size(), DistinctKeys, CacheEntries);
  Out.Notes.push_back(Buf);

  std::map<std::string, double> &M = Out.Metrics;
  if (!O.Trace) {
    // Several windows, each with a fresh daemon under the same load: other
    // tenants' load on the host only slows a window, so the figures are
    // the best window's (each window's own median session, throughput and
    // latency percentiles).
    unsigned Windows = O.Tiny || O.Probe ? 1 : NumWindows;
    double EachS = O.Tiny ? O.Seconds : O.Seconds / NumWindows;
    std::vector<double> Rps, P50, P99, SessionS;
    uint64_t Requests = 0, Samples = 0;
    for (unsigned I = 0; I < Windows; ++I) {
      Window W = window(O, EachS, Out);
      Requests += W.Requests;
      Samples += W.LatencyUs.size();
      Rps.push_back(W.WallS > 0.0 ? (double)W.Requests / W.WallS : 0.0);
      P50.push_back(percentile(W.LatencyUs, 0.50));
      P99.push_back(percentile(W.LatencyUs, 0.99));
      SessionS.push_back(median(W.SessionS));
    }
    std::snprintf(Buf, sizeof(Buf),
                  "serve: %llu requests (%llu latency samples) in %u windows",
                  (unsigned long long)Requests, (unsigned long long)Samples,
                  Windows);
    Out.Notes.push_back(Buf);
    M["wall_s"] = fastest(SessionS);
    M["sim_startup_speedup"] = SimSpeedup;
    M["sim_compile_ratio"] = SimCompileRatio;
    M["serve_rps"] = *std::max_element(Rps.begin(), Rps.end());
    M["serve_p50_us"] = fastest(P50);
    M["serve_p99_us"] = fastest(P99);
    return;
  }

  // Traced run: an untraced window, then a traced one of equal length;
  // the session-time difference is the tracing overhead.
  Window Plain = window(O, O.Seconds / 2, Out);
  Tracer::get().setEnabled(true);
  Window W = window(O, O.Seconds / 2, Out);
  Tracer::get().setEnabled(false);

  auto C = [&](const char *Name) { return (double)W.Counters[Name]; };
  M["serve.batches"] = C("serve.batches");
  M["serve.batch_fill"] =
      C("serve.batches") > 0 ? C("serve.batch_entries") / C("serve.batches")
                             : 0.0;
  M["serve.coalesced"] = C("serve.coalesced");
  double Lookups = C("serve.cache_hits") + C("serve.cache_misses");
  M["serve.cache_hit_rate"] = Lookups > 0 ? C("serve.cache_hits") / Lookups
                                          : 0.0;
  M["serve.shed"] = C("serve.shed");
  M["serve.reload_ms"] = median(W.ReloadMs);
  M["serve.reload_failed"] = C("serve.reload_failed");
  M["serve.accepts"] = C("serve.accepts");
  M["serve.connect_us"] = median(W.ConnectUs);
  M["bridge.retries"] = C("bridge.retries");
  M["bridge.timeouts"] = C("bridge.timeouts");
  M["bridge.fallbacks"] = C("bridge.fallbacks");
  M["trace.overhead_s"] = median(W.SessionS) - median(Plain.SessionS);
  M["trace.overhead_share"] =
      (median(W.SessionS) - median(Plain.SessionS)) / median(Plain.SessionS);

  // Offline model cost over the request keys, outside the daemon.
  ServeModel Model;
  Model.Set = Reference;
  uint64_t Calls = 0, Sink = 0;
  double T0 = nowSeconds();
  for (const std::vector<Request> &S : Streams)
    for (const Request &R : S) {
      Sink += Model.predict(R.Level, R.Features).value_or(0);
      ++Calls;
    }
  double Us = (nowSeconds() - T0) * 1e6;
  M["svm.predict_us"] = Calls ? Us / (double)Calls : 0.0;
  Out.check(Sink != 0 || Calls == 0, "offline predictions were all empty");
}

} // namespace

std::unique_ptr<Workload> makeServe() { return std::make_unique<Serve>(); }

} // namespace perfbench
