//===- perfbench/Driver.cpp - Argument parsing, repetition, results -------===//
//
//   perfbench_driver --workload learn|serve --seed N --seconds S
//                    --trace 0|1 --tmpdir DIR [--trace-out FILE]
//   perfbench_driver --smoke --tmpdir DIR
//   perfbench_driver --rss-probe --workload W --seed N --seconds S --tmpdir DIR
//
// Set-up runs at least three times and until it has taken three seconds
// (at most fifteen times); setup_s is the median, and the last set-up is
// the one measured. peak_rss_mb comes from a memory probe: a fresh process
// (this driver with --rss-probe) that sets the workload up once, runs one
// repetition of its body and prints its peak resident set. Measured in
// the benchmark's own process, the peak would mostly reflect how the
// earlier set-ups left the heap. The last line of standard output is the
// JSON result. The smoke mode runs every workload at tiny size, clean and
// with an injected wrong answer, and exits non-zero unless every clean run
// passes and every injected wrong answer is caught.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/ThreadPool.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sys/stat.h>
#include <unistd.h>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||     \
    __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

using namespace perfbench;

namespace {

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// End-to-end metrics: every untraced run reports all of them. Must match
/// BENCHMARK.json (run.py checks).
const MetricDef EndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"sim_startup_speedup", "x"},
    {"sim_compile_ratio", "x"},
    {"serve_rps", "1/s"},
    {"serve_p50_us", "us"},
    {"serve_p99_us", "us"},
};

/// Per-layer metrics: every traced run reports all of them; a layer the
/// workload does not exercise reads 0.
const MetricDef PerLayer[] = {
    {"runtime.run_s", "s"},
    {"runtime.compile_s", "s"},
    {"runtime.self_s", "s"},
    {"runtime.compilations", "count"},
    {"runtime.interpreted_invocations", "count"},
    {"jitml.hook_s", "s"},
    {"jitml.predictions", "count"},
    {"replay.compiles", "count"},
    {"il.generate_s", "s"},
    {"il.nodes", "count"},
    {"features.extract_s", "s"},
    {"jitml.predict_s", "s"},
    {"opt.optimize_s", "s"},
    {"opt.entries_run", "count"},
    {"opt.entries_skipped", "count"},
    {"opt.memo_hit_rate", "ratio"},
    {"codegen.generate_s", "s"},
    {"codegen.insts", "count"},
    {"sim.compile_cycles.cold", "cycles"},
    {"sim.compile_cycles.warm", "cycles"},
    {"sim.compile_cycles.hot", "cycles"},
    {"sim.app_cycles", "cycles"},
    {"collect.session_s", "s"},
    {"collect.records", "count"},
    {"collect.archive_encode_s", "s"},
    {"collect.archive_decode_s", "s"},
    {"collect.archive_bytes", "bytes"},
    {"mldata.merge_s", "s"},
    {"mldata.rank_s", "s"},
    {"mldata.ranked_instances.cold", "count"},
    {"mldata.ranked_instances.warm", "count"},
    {"mldata.ranked_instances.hot", "count"},
    {"mldata.normalize_s", "s"},
    {"svm.train_s", "s"},
    {"svm.classes.cold", "count"},
    {"svm.classes.warm", "count"},
    {"svm.classes.hot", "count"},
    {"svm.iterations", "count"},
    {"svm.shrink_restarts", "count"},
    {"pool.task_wait_us", "us"},
    {"pool.busy_us", "us"},
    {"serve.batches", "count"},
    {"serve.batch_fill", "count"},
    {"serve.coalesced", "count"},
    {"serve.cache_hit_rate", "ratio"},
    {"serve.shed", "count"},
    {"serve.reload_ms", "ms"},
    {"serve.reload_failed", "count"},
    {"serve.accepts", "count"},
    {"serve.connect_us", "us"},
    {"svm.predict_us", "us"},
    {"bridge.retries", "count"},
    {"bridge.timeouts", "count"},
    {"bridge.fallbacks", "count"},
    {"trace.spans", "count"},
    {"trace.uncovered_share", "ratio"},
    {"trace.overhead_s", "s"},
    {"trace.overhead_share", "ratio"},
};

std::unique_ptr<Workload> makeWorkload(const std::string &Name) {
  if (Name == "learn")
    return makeLearn();
  if (Name == "serve")
    return makeServe();
  return nullptr;
}

/// Runs the memory probe for \p O's workload and returns its peak
/// resident set in MiB (NaN when it failed).
double probeRssMb(const Options &O, Outcome &Out) {
  char Self[4096];
  ssize_t Len = readlink("/proc/self/exe", Self, sizeof(Self) - 1);
  std::string Dir = O.TmpDir + "/probe";
  if (Len <= 0 || (mkdir(Dir.c_str(), 0700) != 0 && errno != EEXIST)) {
    Out.check(false, "memory probe could not start");
    return NAN;
  }
  Self[Len] = '\0';
  auto Quote = [](const std::string &S) { return "'" + S + "'"; };
  char Seconds[64];
  std::snprintf(Seconds, sizeof(Seconds), "%.17g", O.Seconds);
  std::string Cmd = Quote(Self) + " --rss-probe --workload " +
                    Quote(O.Workload) + " --seed " + std::to_string(O.Seed) +
                    " --seconds " + Seconds + " --tmpdir " + Quote(Dir);
  std::FILE *P = popen(Cmd.c_str(), "r");
  if (!P) {
    Out.check(false, "memory probe could not start");
    return NAN;
  }
  char Line[256];
  double Mb = NAN;
  while (std::fgets(Line, sizeof(Line), P))
    if (std::sscanf(Line, "peak_rss_mb %lf", &Mb) != 1)
      Mb = NAN;
  int Status = pclose(P);
  Out.check(Status == 0 && std::isfinite(Mb), "memory probe failed");
  return Mb;
}

/// Runs set-up (once when Tiny) and the body; fills every metric of the
/// run's kind.
Outcome runWorkload(Workload &W, const Options &O) {
  constexpr size_t MinSetups = 3, MaxSetups = 15;
  constexpr double SetupBudgetS = 3.0;
  std::vector<double> SetupS;
  double Spent = 0.0;
  while (SetupS.empty() ||
         (!O.Tiny && SetupS.size() < MaxSetups &&
          (SetupS.size() < MinSetups || Spent < SetupBudgetS))) {
    double T0 = nowSeconds();
    W.setup(O);
    SetupS.push_back(nowSeconds() - T0);
    Spent += SetupS.back();
  }
  Outcome Out;
  Tracer::get().clear();
  W.run(O, Out);

  if (O.Trace) {
    std::vector<Span> Spans = Tracer::get().spans();
    Out.Metrics["trace.spans"] = (double)Spans.size();
    Out.Metrics["trace.uncovered_share"] = uncoveredShare(Spans);
    std::printf("%s", selfTimeTable(Spans).c_str());
    if (!O.TraceOut.empty()) {
      // serve records over a million request spans in a run; the file
      // keeps the first ones (about 30 MB), the table above covers all.
      constexpr size_t MaxFileSpans = 250000;
      Out.check(Tracer::get().writeJsonl(O.TraceOut, MaxFileSpans),
                "could not write the span file " + O.TraceOut);
      std::printf("spans: %s (%zu of %zu)\n", O.TraceOut.c_str(),
                  std::min(Spans.size(), MaxFileSpans), Spans.size());
    }
    Tracer::get().clear();
    for (const MetricDef &D : PerLayer)
      Out.Metrics.emplace(D.Name, 0.0); // layer not exercised here
  } else {
    Out.Metrics["setup_s"] = median(SetupS);
    if (!O.Tiny)
      Out.Metrics["peak_rss_mb"] = probeRssMb(O, Out);
  }
  return Out;
}

void printResult(const Options &O, Outcome &Out) {
  for (const std::string &N : Out.Notes)
    std::printf("%s\n", N.c_str());
  std::string Json = "{";
  bool First = true;
  auto Emit = [&](const MetricDef &D) {
    auto It = Out.Metrics.find(D.Name);
    double V = It == Out.Metrics.end() ? NAN : It->second;
    if (!std::isfinite(V)) {
      Out.check(false, std::string("metric ") + D.Name + " was not measured");
      V = 0.0;
    }
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  First ? "" : ", ", D.Name, V, D.Unit);
    Json += Buf;
    First = false;
  };
  if (O.Trace)
    for (const MetricDef &D : PerLayer)
      Emit(D);
  else
    for (const MetricDef &D : EndToEnd)
      Emit(D);
  Json += "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Out.Failed == 0 && Out.Attempted > 0 ? "true" : "false",
              (unsigned long long)Out.Attempted,
              (unsigned long long)Out.Failed, Json.c_str());
  std::fflush(stdout);
}

/// Every oracle must pass on the clean code and catch its injected wrong
/// answer.
int smoke(const Options &Base) {
  struct Case {
    const char *Workload;
    bool Trace;
    Inject Injected;
  };
  const Case Cases[] = {
      {"serve", false, Inject::None},
      {"serve", true, Inject::None},
      {"serve", false, Inject::CorruptedModifier},
      {"learn", false, Inject::None},
      {"learn", true, Inject::None},
      {"learn", false, Inject::PerturbedDigest},
      {"learn", false, Inject::FlippedChecksum},
  };
  bool AllOk = true;
  for (const Case &C : Cases) {
    Options O = Base;
    O.Workload = C.Workload;
    O.Trace = C.Trace;
    O.Injected = C.Injected;
    O.Tiny = true;
    O.Seconds = 0.5;
    std::unique_ptr<Workload> W = makeWorkload(C.Workload);
    Outcome Out = runWorkload(*W, O);
    bool Injected = C.Injected != Inject::None;
    bool Ok = Injected ? Out.Failed > 0 : Out.Failed == 0 && Out.Attempted > 0;
    AllOk &= Ok;
    std::printf("smoke %-8s %-7s %-18s attempted %6llu failed %4llu  %s\n",
                C.Workload, C.Trace ? "traced" : "plain",
                Injected ? "injected" : "clean",
                (unsigned long long)Out.Attempted,
                (unsigned long long)Out.Failed,
                Ok ? "ok" : "WRONG");
    if (!Ok)
      for (const std::string &N : Out.Notes)
        std::printf("  %s\n", N.c_str());
    std::fflush(stdout);
  }
  std::printf("smoke: %s\n", AllOk ? "every oracle passes clean runs and "
                                     "catches its injected wrong answer"
                                   : "FAILED");
  return AllOk ? 0 : 1;
}

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "learn|serve --seed N --seconds S --trace 0|1 "
               "--tmpdir DIR [--trace-out FILE] | --smoke --tmpdir DIR\n",
               Why);
  std::exit(2);
}

} // namespace

int main(int argc, char **argv) {
#ifdef PERFBENCH_SANITIZED
  std::fprintf(stderr, "perfbench_driver: refusing to measure a sanitizer "
                       "build\n");
  return 2;
#endif
  Options O;
  bool Smoke = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= argc)
        usage(("missing value for " + A).c_str());
      return argv[++I];
    };
    if (A == "--workload")
      O.Workload = Value();
    else if (A == "--seed")
      O.Seed = std::strtoull(Value().c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(Value().c_str(), nullptr);
    else if (A == "--trace")
      O.Trace = Value() == "1";
    else if (A == "--tmpdir")
      O.TmpDir = Value();
    else if (A == "--trace-out")
      O.TraceOut = Value();
    else if (A == "--smoke")
      Smoke = true;
    else if (A == "--rss-probe")
      O.Probe = true;
    else
      usage(("unknown argument " + A).c_str());
  }
  if (O.TmpDir.empty())
    usage("--tmpdir is required");

  if (Smoke && O.Probe)
    usage("--smoke and --rss-probe exclude each other");
  if (Smoke) {
    std::printf("build: %s, %s; jobs %u\n", PERFBENCH_BUILD_TYPE,
                PERFBENCH_CXX_COMPILER, configuredJobs());
    return smoke(O);
  }

  std::unique_ptr<Workload> W = makeWorkload(O.Workload);
  if (!W)
    usage(("unknown workload '" + O.Workload + "'").c_str());
  if (!(O.Seconds > 0.0))
    usage("--seconds must be positive");
  if (O.Probe) {
    // Peak since this process started: one set-up and one repetition.
    Outcome Ignored;
    W->setup(O);
    W->run(O, Ignored);
    std::printf("peak_rss_mb %.17g\n", peakRssMb());
    return 0;
  }
  std::printf("build: %s, %s; jobs %u\n", PERFBENCH_BUILD_TYPE,
              PERFBENCH_CXX_COMPILER, configuredJobs());
  Outcome Out = runWorkload(*W, O);
  printResult(O, Out);
  return 0;
}
