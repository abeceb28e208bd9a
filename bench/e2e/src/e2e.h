#ifndef MDSEQ_BENCH_E2E_E2E_H_
#define MDSEQ_BENCH_E2E_E2E_H_

// Shared declarations of the end-to-end benchmark program `mdseq_e2e`
// (see bench/e2e/README.md): workload table, fixtures, the correctness
// gate, the open-loop load generator, and the traced per-layer replay.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/database.h"
#include "core/search.h"
#include "engine/query_engine.h"
#include "eval/experiment.h"
#include "ingest/live_database.h"
#include "obs/metrics.h"
#include "shard/coordinator.h"
#include "shard/shard_set.h"
#include "shard/transport.h"
#include "storage/disk_database.h"

namespace mdseq::e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Prints "mdseq_e2e: <what>" and exits with code 1 (a failed set-up step).
[[noreturn]] void Fail(const std::string& what);

enum class Backend { kMemory, kDisk, kSharded, kLive };

/// One workload: a corpus, the backend serving it, and its request mix.
/// Why each exists is in bench/e2e/README.md and BENCHMARK.json.
struct WorkloadSpec {
  const char* name;
  DataKind kind;
  Backend backend;
  /// Requests run `SearchVerified` (filter + refine) instead of `Search`.
  bool verified;
  /// Open-loop arrival rate of the fixed-rate phase (~40% of capacity).
  double fixed_qps;
  /// Latency limit on the tail percentile (`kTailPercentile`).
  double slo_ms;
  /// Clamp of the max-rate bisection.
  double min_qps;
  double max_qps;
  /// Buffer-pool frames of the disk and live backends.
  size_t pool_pages;
};

/// The tail percentile every latency limit and the `p95_ms` metric use:
/// the highest with at least ten samples beyond it at every workload's
/// fixed rate (a verified workload serves ~450 requests in a run), and one
/// a single host stall does not move.
inline constexpr double kTailPercentile = 95.0;
/// Shards of the sharded workload, and the live workload's write cadence.
inline constexpr size_t kShards = 4;
inline constexpr double kWriteIntervalS = 0.125;
/// Buffer pools: the cold disk workload's 64 frames (256 KiB, ~2% of its
/// file) and the live workload's 8192 (32 MiB, larger than its file).
inline constexpr size_t kColdPoolPages = 64;
inline constexpr size_t kLivePoolPages = 8192;

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// Sizes and phase lengths; `--quick` shrinks all of them.
struct Scale {
  /// Corpus size; 0 keeps Table 2 (1600 synthetic / 1408 video).
  size_t sequences = 0;
  size_t min_length = 56;
  size_t max_length = 512;
  size_t pool_queries = 100;
  size_t scan_pairs = 20;
  size_t setup_repeats = 5;
  size_t traced_requests = 100;
  size_t ingest_writes = 40;
  size_t probes = 5;
  double warmup_s = 0.5;
  double probe_warmup_s = 0.2;
  /// Target length of each traced instrumentation pass.
  double obs_pass_s = 0.5;
};
Scale FullScale();
Scale QuickScale();

/// Worker threads: one per CPU this process may run on, minus one for the
/// load generator (at least one).
size_t WorkerThreads();
size_t AvailableCpus();

/// Seed of the corpus and query pool: the paper's data set is fixed
/// (Table 2 parameters, the seed EXPERIMENTS.md uses), while the run seed
/// draws the request stream over it, so runs on different seeds differ in
/// which requests arrive when, not in what is stored.
inline constexpr uint64_t kDataSeed = 42;

/// The generated inputs of one run. The reference database holds every
/// sequence and is built outside `setup_s`; it answers the correctness
/// gate's direct calls.
struct Corpus {
  std::unique_ptr<SequenceDatabase> reference;
  std::vector<Sequence> queries;
  /// Sequences the served backend starts with (the live workload starts
  /// from the first half and ingests the rest).
  size_t base_count = 0;
  /// Extra sequences for the traced ingest layer on workloads that do not
  /// ingest (drawn from the same generator).
  std::vector<Sequence> extra;
  std::vector<double> epsilons;
};
Corpus MakeCorpus(const WorkloadSpec& spec, const Scale& scale);

/// The served backend of a workload and the engine in front of it. Members
/// are declared so that the engine is destroyed first.
struct Fixture {
  Fixture() = default;
  ~Fixture();
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  const WorkloadSpec* spec = nullptr;
  /// Backing file of the disk and live backends (removed on destruction).
  std::string path;
  /// Metrics sink of instrumented engines. A coordinator keeps handles into
  /// the registry it was registered with, so this outlives the coordinator.
  obs::MetricsRegistry registry;
  std::unique_ptr<SequenceDatabase> memory;
  std::unique_ptr<DiskDatabase> disk;
  std::unique_ptr<ShardSet> shards;
  std::unique_ptr<LoopbackTransport> transport;
  std::unique_ptr<Coordinator> coordinator;
  std::unique_ptr<LiveDatabase> live;
  std::unique_ptr<QueryEngine> engine;
};

/// Corpus in memory -> engine ready: the span `setup_s` times. Builds the
/// backend from the raw sequences `[0, corpus.base_count)` and starts an
/// engine with `threads` workers. Aborts the run on I/O failure.
std::unique_ptr<Fixture> Setup(const WorkloadSpec& spec, const Corpus& corpus,
                               const std::string& path, size_t threads);

/// Engine options of every measured engine: the defaults except the worker
/// count.
EngineOptions MakeEngineOptions(size_t threads);

/// A new engine in front of the fixture's backend.
std::unique_ptr<QueryEngine> EngineFor(const Fixture& fixture,
                                       const EngineOptions& options);

/// The workload's request run directly against its backend, bypassing the
/// engine.
SearchResult DirectSearch(const Fixture& fixture, SequenceView query,
                          double epsilon);

/// Sequences the served backend holds right now.
size_t VisibleSequences(const Fixture& fixture);

/// Expected answers for every (pool query, epsilon) pair.
struct Reference {
  size_t num_epsilons = 0;
  /// `ResultDigest` per pair, `[query * num_epsilons + epsilon]`.
  std::vector<uint64_t> digest;
  /// Verified workloads: the verified matches of each query at the largest
  /// epsilon, ascending id, intervals dropped. Every smaller epsilon's
  /// answer is the subset within that epsilon (exact distances do not
  /// depend on the threshold), which is also how the live workload's
  /// snapshot-prefix answers are checked.
  std::vector<std::vector<SequenceMatch>> verified_max;
};

/// Direct in-memory calls over `threads` threads. Not part of `setup_s`.
Reference ComputeReference(const WorkloadSpec& spec, const Corpus& corpus,
                           size_t threads);

/// Checks one served result for pair (query, epsilon) on a backend whose
/// data does not change.
bool CheckServed(const WorkloadSpec& spec, const Reference& reference,
                 size_t query, size_t epsilon, const SearchResult& result);

/// Live id of a corpus sequence not (yet) ingested.
inline constexpr uint64_t kNotIngested = ~0ull;

/// Checks one live-workload result with `count` matches and digest `digest`
/// (over live ids). `live_ids` maps each corpus index to the id the live
/// database assigned it; ingest batches may commit in another order than
/// they were sent. A snapshot holding n sequences answers with the
/// reference matches whose live id is below n; `visible_lo`/`visible_hi`
/// bracket the n the query could have seen (before submit, after
/// completion).
bool CheckLive(const Corpus& corpus, const Reference& reference,
               const std::vector<uint64_t>& live_ids, size_t query,
               size_t epsilon, size_t count, uint64_t digest,
               size_t visible_lo, size_t visible_hi);

/// The correctness gate's sequential-scan check on a seeded sample of
/// pairs: verified answers must equal the scan (same ids, distances within
/// 1e-9); filter answers must be supersets (Lemmas 1-3 allow no false
/// dismissal). Returns the sampled pairs; `*errors` counts violations.
std::vector<std::pair<size_t, size_t>> ScanCheck(
    const WorkloadSpec& spec, const Corpus& corpus,
    const Reference& reference, size_t pairs, uint64_t seed, size_t threads,
    size_t* errors);

/// Seeded request mix: each request names a pool query and an epsilon
/// index, each uniform. Requests walk a seeded shuffle of all pairs,
/// reshuffled per cycle, so every stretch of the stream carries the pool's
/// own mix of cheap and expensive requests.
class RequestStream {
 public:
  RequestStream(uint64_t seed, size_t queries, size_t epsilons);
  std::pair<size_t, size_t> Next();

 private:
  Rng rng_;
  size_t epsilons_;
  std::vector<size_t> order_;
  size_t next_;
};

/// Seed of the request stream a run (and its traced replay) walks.
inline uint64_t StreamSeed(uint64_t seed) {
  return seed ^ 0xd1b54a32d192ed03ULL;
}

/// One open-loop phase: Poisson arrivals at `qps`, the first `warmup_s`
/// unmeasured. `abort_backlog` stops submitting once the engine holds more
/// requests than the limit (bisection probes far above capacity).
struct LoadPhase {
  double qps = 0.0;
  double warmup_s = 0.0;
  double measure_s = 0.0;
  bool abort_backlog = false;
};

struct LoadResult {
  /// Due-to-completion latency of every request due in the measured
  /// window; failed, refused or wrong requests are +inf.
  std::vector<double> latency_ms;
  /// Generator lateness (submit call - due) of every request.
  std::vector<double> gen_lag_ms;
  /// Write due-to-durable latency (live workload); refused writes +inf.
  std::vector<double> write_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  size_t queue_depth_max = 0;
  double rss_peak_mb = 0.0;
  /// Queue-depth / RSS samples taken (every 10 ms).
  size_t samples = 0;
  /// The engine held more requests when submission stopped than the SLO
  /// allows at this rate (Little's law): the backlog was growing.
  bool backlog_grew = false;
  bool aborted = false;
  /// The generator ran at real-time priority.
  bool realtime = false;
};

/// Drives one fixture's engine. The live workload also submits one sealed
/// sequence every `kWriteIntervalS`, each its own group commit.
class LoadGenerator {
 public:
  LoadGenerator(Fixture* fixture, const Corpus* corpus,
                const Reference* reference, uint64_t seed);
  /// Runs one phase and returns once every request it sent completed.
  LoadResult Run(const LoadPhase& phase);
  /// Corpus index of the next sequence to write.
  size_t next_write() const { return next_write_; }
  /// Live id of every corpus sequence written so far (see `CheckLive`).
  const std::vector<uint64_t>& live_ids() const { return live_ids_; }

 private:
  Fixture* fixture_;
  const Corpus* corpus_;
  const Reference* reference_;
  RequestStream stream_;
  Rng arrivals_;
  size_t next_write_;
  std::vector<uint64_t> live_ids_;
};

/// Requests in an engine that have not completed.
uint64_t InFlight(const QueryEngine& engine);
/// Resident set size of this process, MiB.
double ResidentMb();

/// Linear-interpolated percentile (p in [0, 100]) and the median.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

/// What a traced run adds: every per-layer metric.
std::vector<Metric> RunTraced(Fixture* fixture, const Corpus& corpus,
                              const Reference& reference, const Scale& scale,
                              const std::vector<std::pair<size_t, size_t>>&
                                  scan_pairs,
                              const std::string& workdir, uint64_t seed,
                              double seconds, uint64_t* attempted,
                              uint64_t* failed, uint64_t* wrong);

}  // namespace mdseq::e2e

#endif  // MDSEQ_BENCH_E2E_E2E_H_
