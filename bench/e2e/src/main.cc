// mdseq_e2e: end-to-end benchmark of the paper's workloads through
// QueryEngine, with a traced per-layer breakdown. Usually run through
// bench/e2e/run.sh; see bench/e2e/README.md.
//
//   mdseq_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--quick] [--workdir <dir>] [--commit <sha>]
//             [--result-out <file>]
//
// Human-readable metric lines go to stdout; the last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"}. Exit codes:
// 0 ok, 1 runtime failure, 2 usage error, 3 wrong answer.

#include <malloc.h>
#include <sys/prctl.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>

#include "e2e.h"
#include "obs/json.h"
#include "util/simd.h"

#ifndef MDSEQ_E2E_COMPILER
#define MDSEQ_E2E_COMPILER "unknown"
#endif
#ifndef MDSEQ_E2E_FLAGS
#define MDSEQ_E2E_FLAGS "unknown"
#endif

namespace mdseq::e2e {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool quick = false;
  std::string workdir = ".bench_build/work";
  std::string commit = "unknown";
  std::string result_out;
};

void Usage() {
  std::fprintf(stderr,
               "usage: mdseq_e2e --workload <name> [--seed N] [--seconds S] "
               "[--trace 0|1] [--quick] [--workdir DIR] [--commit SHA] "
               "[--result-out FILE]\nworkloads:");
  for (const WorkloadSpec& spec : Workloads()) {
    std::fprintf(stderr, " %s", spec.name);
  }
  std::fprintf(stderr, "\n");
}

// Accepts `--key value` and `--key=value`.
bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return false;
    key = key.substr(2);
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (key == "quick") {
      value = "1";
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
    } else if (key == "seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (key == "trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "quick") {
      args->quick = value != "0";
    } else if (key == "workdir") {
      args->workdir = value;
    } else if (key == "commit") {
      args->commit = value;
    } else if (key == "result-out") {
      args->result_out = value;
    } else {
      return false;
    }
  }
  return FindWorkload(args->workload) != nullptr;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string FilesystemOf(const std::string& dir) {
  struct statfs info;
  if (statfs(dir.c_str(), &info) != 0) return "unknown";
  static const std::map<unsigned long, const char*> kNames = {
      {0xEF53, "ext4"},       {0x58465342, "xfs"},
      {0x9123683E, "btrfs"},  {0x01021994, "tmpfs"},
      {0x794C7630, "overlayfs"}, {0x6969, "nfs"},
      {0x65735546, "fuse"},   {0x2FC12FC1, "zfs"},
  };
  const auto it = kNames.find(static_cast<unsigned long>(info.f_type));
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%lx",
                static_cast<unsigned long>(info.f_type));
  return it != kNames.end() ? it->second : hex;
}

std::string Number(double value) {
  if (!std::isfinite(value)) value = 1e300;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

// {"name": {"value": v, "unit": "u"[, "samples": n]}, ...}
std::string MetricsJson(const std::vector<Metric>& metrics, bool samples) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    out += obs::JsonQuote(m.name);
    out += ": {\"value\": ";
    out += Number(m.value);
    out += ", \"unit\": ";
    out += obs::JsonQuote(m.unit);
    if (samples) {
      out += ", \"samples\": ";
      out += std::to_string(m.samples);
    }
    out += "}";
  }
  return out + "}";
}

// The rate between a passing probe `lo` (tail `lo_tail` <= slo) and a
// failing one `hi` where the tail reaches the SLO, interpolating log tail
// over log rate; `lo` when the failing side has no finite tail above the
// SLO (it failed on backlog, or was never probed).
double SloCrossing(double lo, double lo_tail, double hi, double hi_tail,
                   double slo) {
  if (!std::isfinite(hi_tail) || !(hi_tail > slo) || !(lo_tail > 0.0) ||
      lo_tail >= hi_tail) {
    return lo;
  }
  const double t = std::clamp(std::log(slo / lo_tail) /
                                  std::log(hi_tail / lo_tail),
                              0.0, 1.0);
  return lo * std::pow(hi / lo, t);
}

struct RunOutput {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  /// Extra JSON members for the result file (no braces).
  std::string detail;
};

// The fixed-rate phase, then a log-space bisection for the highest rate
// that meets the SLO with no failures and no growing backlog. `rss_base_mb`
// is the process before set-up: rss_mb is what serving at the fixed rate
// adds to it.
RunOutput RunEndToEnd(Fixture* fixture, const Corpus& corpus,
                      const Reference& reference, const Scale& scale,
                      uint64_t seed, double seconds, double rss_base_mb) {
  const WorkloadSpec& spec = *fixture->spec;
  LoadGenerator generator(fixture, &corpus, &reference, seed);
  RunOutput out;
  auto run = [&](const LoadPhase& phase) {
    LoadResult r = generator.Run(phase);
    out.attempted += r.attempted;
    out.failed += r.failed;
    out.wrong += r.wrong;
    return r;
  };
  auto passes = [&](const LoadResult& r) {
    return r.failed == 0 && r.wrong == 0 && !r.aborted && !r.backlog_grew &&
           Percentile(r.latency_ms, kTailPercentile) <= spec.slo_ms;
  };

  // Half the run at the fixed rate, half for the probes; the probe length
  // leaves room for about half of them to be repeated.
  const double fixed_s = std::max(0.2, 0.5 * seconds - scale.warmup_s);
  const double probe_s = std::max(
      0.1, 0.5 * seconds / (1.5 * static_cast<double>(scale.probes)) -
               scale.probe_warmup_s);
  const LoadResult fixed =
      run(LoadPhase{spec.fixed_qps, scale.warmup_s, fixed_s, false});

  // Bisect in log space between the fixed rate and 1.7x the capacity the
  // fixed phase implies (workers over mean latency). A failing probe is
  // repeated once, so one host stall inside a short window cannot decide
  // it. The answer interpolates where p95 crosses the SLO between the last
  // passing and the last failing probe, rather than snapping to the
  // bracket's lower edge.
  double latency_sum = 0.0;
  size_t finite = 0;
  for (double ms : fixed.latency_ms) {
    if (std::isfinite(ms)) {
      latency_sum += ms;
      ++finite;
    }
  }
  const double mean_ms = finite > 0 ? latency_sum / finite : spec.slo_ms;
  const double capacity =
      static_cast<double>(fixture->engine->num_threads()) * 1000.0 / mean_ms;
  const bool fixed_ok = passes(fixed);
  double lo = fixed_ok ? spec.fixed_qps : spec.min_qps;
  double hi = std::clamp(1.7 * capacity, 1.5 * lo, spec.max_qps);
  double lo_tail =
      fixed_ok ? Percentile(fixed.latency_ms, kTailPercentile) : 0.0;
  double hi_tail = std::numeric_limits<double>::infinity();
  std::string probes = "[";
  for (size_t i = 0; i < scale.probes; ++i) {
    const double rate = std::sqrt(lo * hi);
    const LoadPhase phase{rate, scale.probe_warmup_s, probe_s, true};
    LoadResult probe = run(phase);
    bool ok = passes(probe);
    bool repeated = false;
    if (!ok && !probe.aborted) {
      probe = run(phase);
      ok = passes(probe);
      repeated = true;
    }
    const double tail = Percentile(probe.latency_ms, kTailPercentile);
    if (ok) {
      lo = rate;
      lo_tail = tail;
    } else {
      hi = rate;
      hi_tail = probe.aborted ? std::numeric_limits<double>::infinity()
                              : tail;
    }
    probes += std::string(i > 0 ? "," : "") + "{\"qps\":" + Number(rate) +
              ",\"tail_ms\":" + Number(tail) +
              ",\"samples\":" + std::to_string(probe.latency_ms.size()) +
              ",\"repeated\":" + (repeated ? "true" : "false") +
              ",\"pass\":" + (ok ? "true" : "false") + "}";
  }
  probes += "]";

  out.metrics = {
      {"p50_ms", Percentile(fixed.latency_ms, 50.0), "ms",
       fixed.latency_ms.size()},
      {"p95_ms", Percentile(fixed.latency_ms, kTailPercentile), "ms",
       fixed.latency_ms.size()},
      {"max_qps_at_slo", SloCrossing(lo, lo_tail, hi, hi_tail, spec.slo_ms),
       "1/s", scale.probes},
      {"rss_mb", fixed.rss_peak_mb - rss_base_mb, "MiB", fixed.samples},
  };
  out.detail = "\"fixed_qps\":" + Number(spec.fixed_qps) +
               ",\"slo_ms\":" + Number(spec.slo_ms) +
               ",\"fixed_mean_ms\":" + Number(mean_ms) +
               ",\"fixed_p99_ms\":" +
               Number(Percentile(fixed.latency_ms, 99.0)) +
               ",\"gen_lag_ms_p99\":" +
               Number(Percentile(fixed.gen_lag_ms, 99.0)) +
               ",\"generator_realtime\":" +
               (fixed.realtime ? "true" : "false") +
               ",\"queue_depth_max\":" +
               std::to_string(fixed.queue_depth_max) +
               ",\"probes\":" + probes;
  if (spec.backend == Backend::kLive) {
    // Writes beside reads: due -> durable, one sealed sequence per group
    // commit. Printed and recorded; the per-layer ingest metrics carry the
    // write path into BENCHMARK.json.
    const double p50 = Percentile(fixed.write_ms, 50.0);
    const double p95 = Percentile(fixed.write_ms, 95.0);
    std::printf("%-22s %-18s %14.4f %-6s n=%zu (not gated)\n", spec.name,
                "write_p50_ms", p50, "ms", fixed.write_ms.size());
    std::printf("%-22s %-18s %14.4f %-6s n=%zu (not gated)\n", spec.name,
                "write_p95_ms", p95, "ms", fixed.write_ms.size());
    out.detail += ",\"write_p50_ms\":" + Number(p50) +
                  ",\"write_p95_ms\":" + Number(p95) +
                  ",\"write_samples\":" +
                  std::to_string(fixed.write_ms.size()) +
                  ",\"writes\":" +
                  std::to_string(generator.next_write() - corpus.base_count);
  }
  return out;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  const Scale scale = args.quick ? QuickScale() : FullScale();
  const size_t threads = WorkerThreads();
  // Tighter timer slack keeps the generator's sleeps close to due times.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) Fail("cannot create " + args.workdir);
  const long started = static_cast<long>(std::time(nullptr));
  std::printf("# mdseq_e2e workload=%s seed=%llu seconds=%g trace=%d "
              "quick=%d workers=%zu cpus=%zu simd=%s\n",
              spec.name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.quick ? 1 : 0, threads,
              AvailableCpus(), simd::LevelName(simd::ActiveLevel()));

  const Corpus corpus = MakeCorpus(spec, scale);
  const Reference reference = ComputeReference(spec, corpus, threads);
  size_t scan_errors = 0;
  const std::vector<std::pair<size_t, size_t>> scan_pairs =
      ScanCheck(spec, corpus, reference, scale.scan_pairs, args.seed,
                threads, &scan_errors);
  if (scan_errors > 0) {
    std::fprintf(stderr,
                 "mdseq_e2e: %zu of %zu pairs disagree with the sequential "
                 "scan\n",
                 scan_errors, scan_pairs.size());
    return 3;
  }

  // setup_s: median of several independent set-ups; the last one serves.
  // Each starts from a trimmed heap, and the first trim also fixes the
  // baseline rss_mb is measured from.
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fixture;
  const std::string path = args.workdir + "/" + spec.name + "-" +
                           std::to_string(::getpid()) + ".mdseq";
  double rss_base_mb = 0.0;
  for (size_t r = 0; r < scale.setup_repeats; ++r) {
    fixture.reset();
    malloc_trim(0);
    if (r == 0) rss_base_mb = ResidentMb();
    const Clock::time_point start = Clock::now();
    fixture = Setup(spec, corpus, path, threads);
    setup_s.push_back(SecondsBetween(start, Clock::now()));
  }

  RunOutput run;
  if (args.trace) {
    run.metrics = RunTraced(fixture.get(), corpus, reference, scale,
                            scan_pairs, args.workdir, args.seed,
                            args.seconds, &run.attempted, &run.failed,
                            &run.wrong);
  } else {
    run = RunEndToEnd(fixture.get(), corpus, reference, scale, args.seed,
                      args.seconds, rss_base_mb);
    run.metrics.insert(run.metrics.begin(),
                       Metric{"setup_s", Median(setup_s), "s",
                              setup_s.size()});
  }
  fixture.reset();

  for (const Metric& m : run.metrics) {
    std::printf("%-22s %-26s %14.4f %-6s n=%llu\n", spec.name,
                m.name.c_str(), m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
  const bool correct = run.wrong == 0;
  const uint64_t failed = run.failed + run.wrong;

  if (!args.result_out.empty()) {
    std::string json = "{\"workload\":" + obs::JsonQuote(spec.name) +
                       ",\"seed\":" + std::to_string(args.seed) +
                       ",\"seconds\":" + Number(args.seconds) +
                       ",\"trace\":" + (args.trace ? "1" : "0") +
                       ",\"quick\":" + (args.quick ? "true" : "false") +
                       ",\"started_unix\":" + std::to_string(started) +
                       ",\"host\":{\"nproc\":" +
                       std::to_string(AvailableCpus()) +
                       ",\"workers\":" + std::to_string(threads) +
                       ",\"cpu_model\":" + obs::JsonQuote(CpuModel()) +
                       ",\"simd\":" +
                       obs::JsonQuote(simd::LevelName(simd::ActiveLevel())) +
                       ",\"compiler\":" + obs::JsonQuote(MDSEQ_E2E_COMPILER) +
                       ",\"flags\":" + obs::JsonQuote(MDSEQ_E2E_FLAGS) +
                       ",\"commit\":" + obs::JsonQuote(args.commit) +
                       ",\"workdir_fs\":" +
                       obs::JsonQuote(FilesystemOf(args.workdir)) + "}" +
                       ",\"correct\":" + (correct ? "true" : "false") +
                       ",\"attempted\":" + std::to_string(run.attempted) +
                       ",\"failed\":" + std::to_string(failed) +
                       ",\"metrics\":" + MetricsJson(run.metrics, true);
    if (!run.detail.empty()) json += ",\"detail\":{" + run.detail + "}";
    json += "}\n";
    std::ofstream file(args.result_out);
    file << json;
    if (!file.good()) {
      std::fprintf(stderr, "mdseq_e2e: cannot write %s\n",
                   args.result_out.c_str());
      return 1;
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(
                  std::max<uint64_t>(1, run.attempted)),
              static_cast<unsigned long long>(failed),
              MetricsJson(run.metrics, false).c_str());
  std::fflush(stdout);
  return correct ? 0 : 3;
}

}  // namespace
}  // namespace mdseq::e2e

int main(int argc, char** argv) { return mdseq::e2e::Main(argc, argv); }
