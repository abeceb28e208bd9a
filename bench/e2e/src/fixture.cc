// Workload table, corpus generation, backend set-up and the correctness
// gate of the end-to-end benchmark.

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <thread>

#include "baseline/sequential_scan.h"
#include "e2e.h"
#include "gen/fractal.h"
#include "gen/video.h"

namespace mdseq::e2e {

void Fail(const std::string& what) {
  std::fprintf(stderr, "mdseq_e2e: %s\n", what.c_str());
  std::exit(1);
}

namespace {

// Runs `body(i)` for i in [0, count) on `threads` threads.
template <typename Body>
void ParallelFor(size_t count, size_t threads, const Body& body) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < std::max<size_t>(1, threads); ++t) {
    pool.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
        body(i);
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
}

// The verified answer at `epsilon`: the matches of the largest epsilon
// whose exact distance is within it.
std::vector<SequenceMatch> Within(const std::vector<SequenceMatch>& matches,
                                  double epsilon) {
  std::vector<SequenceMatch> out;
  for (const SequenceMatch& match : matches) {
    if (match.exact_distance <= epsilon) out.push_back(match);
  }
  return out;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = {
      {"filter_mem", DataKind::kSynthetic, Backend::kMemory, false, 2000.0,
       5.0, 500.0, 20000.0, 0},
      {"verified_disk_cold", DataKind::kVideo, Backend::kDisk, true, 40.0,
       300.0, 10.0, 400.0, kColdPoolPages},
      {"sharded4_filter", DataKind::kSynthetic, Backend::kSharded, false,
       2000.0, 5.0, 500.0, 20000.0, 0},
      {"live_ingest_verified", DataKind::kSynthetic, Backend::kLive, true,
       50.0, 250.0, 10.0, 400.0, kLivePoolPages},
  };
  return workloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

Scale FullScale() { return Scale(); }

Scale QuickScale() {
  Scale scale;
  scale.sequences = 160;
  scale.max_length = 160;
  scale.pool_queries = 20;
  scale.scan_pairs = 5;
  scale.setup_repeats = 2;
  scale.traced_requests = 10;
  scale.ingest_writes = 4;
  scale.probes = 3;
  scale.warmup_s = 0.1;
  scale.probe_warmup_s = 0.05;
  scale.obs_pass_s = 0.05;
  return scale;
}

size_t AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

size_t WorkerThreads() { return std::max<size_t>(1, AvailableCpus() - 1); }

Corpus MakeCorpus(const WorkloadSpec& spec, const Scale& scale) {
  WorkloadConfig config;
  config.kind = spec.kind;
  config.num_sequences =
      scale.sequences > 0 ? scale.sequences
                          : (spec.kind == DataKind::kSynthetic ? 1600 : 1408);
  config.min_length = scale.min_length;
  config.max_length = scale.max_length;
  config.num_queries = scale.pool_queries;
  config.query.min_length = 24;
  config.query.max_length = 64;
  config.seed = kDataSeed;
  Workload workload = BuildWorkload(config);

  Corpus corpus;
  corpus.reference = std::move(workload.database);
  corpus.queries = std::move(workload.queries);
  corpus.epsilons = PaperEpsilons();
  const size_t total = corpus.reference->num_sequences();
  corpus.base_count = spec.backend == Backend::kLive ? total / 2 : total;
  if (spec.backend != Backend::kLive) {
    // The traced ingest layer appends these: direct appends, then writes
    // through an engine.
    Rng rng(kDataSeed ^ 0x9e3779b97f4a7c15ULL);
    for (size_t i = 0; i < 2 * scale.ingest_writes; ++i) {
      const size_t length = static_cast<size_t>(
          rng.UniformInt(static_cast<int64_t>(config.min_length),
                         static_cast<int64_t>(config.max_length)));
      corpus.extra.push_back(
          spec.kind == DataKind::kSynthetic
              ? GenerateFractalSequence(length, FractalOptions(), &rng)
              : GenerateVideoSequence(length, VideoOptions(), &rng));
    }
  }
  return corpus;
}

Fixture::~Fixture() {
  engine.reset();
  live.reset();
  coordinator.reset();
  transport.reset();
  shards.reset();
  disk.reset();
  memory.reset();
  if (!path.empty()) {
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
  }
}

EngineOptions MakeEngineOptions(size_t threads) {
  EngineOptions options;
  options.num_threads = threads;
  return options;
}

std::unique_ptr<Fixture> Setup(const WorkloadSpec& spec, const Corpus& corpus,
                               const std::string& path, size_t threads) {
  const SequenceDatabase& reference = *corpus.reference;
  auto build_memory = [&] {
    auto database = std::make_unique<SequenceDatabase>(reference.dim(),
                                                       reference.options());
    for (size_t id = 0; id < corpus.base_count; ++id) {
      database->Add(reference.sequence(id));
    }
    return database;
  };
  auto fixture = std::make_unique<Fixture>();
  fixture->spec = &spec;
  switch (spec.backend) {
    case Backend::kMemory:
      fixture->memory = build_memory();
      break;
    case Backend::kDisk: {
      fixture->path = path;
      if (!DiskDatabase::Save(*build_memory(), path)) {
        Fail("cannot write " + path);
      }
      fixture->disk = std::make_unique<DiskDatabase>(path, spec.pool_pages);
      if (!fixture->disk->valid()) Fail("cannot open " + path);
      break;
    }
    case Backend::kSharded: {
      fixture->shards = ShardSet::BuildInMemory(*build_memory(), kShards,
                                                PlacementPolicy::kHash);
      fixture->transport =
          std::make_unique<LoopbackTransport>(fixture->shards->nodes());
      CoordinatorOptions coordinator_options;
      coordinator_options.fanout_threads = threads;
      fixture->coordinator = std::make_unique<Coordinator>(
          fixture->transport.get(), fixture->shards->placement(),
          coordinator_options);
      break;
    }
    case Backend::kLive: {
      fixture->path = path;
      if (!LiveDatabase::Create(path, reference.dim(),
                                reference.options().partitioning)) {
        Fail("cannot create " + path);
      }
      LiveDatabaseOptions live_options;
      live_options.pool_pages = spec.pool_pages;
      fixture->live = std::make_unique<LiveDatabase>(path, live_options);
      if (!fixture->live->valid()) Fail("cannot open " + path);
      for (size_t id = 0; id < corpus.base_count; ++id) {
        const uint64_t live_id = fixture->live->BeginSequence();
        if (!fixture->live->AppendPoints(live_id,
                                         reference.sequence(id).View()) ||
            !fixture->live->SealSequence(live_id)) {
          Fail("ingest failed in " + path);
        }
      }
      if (!fixture->live->Commit() || !fixture->live->Checkpoint()) {
        Fail("commit/checkpoint failed in " + path);
      }
      break;
    }
  }
  fixture->engine = EngineFor(*fixture, MakeEngineOptions(threads));
  return fixture;
}

std::unique_ptr<QueryEngine> EngineFor(const Fixture& fixture,
                                       const EngineOptions& options) {
  switch (fixture.spec->backend) {
    case Backend::kMemory:
      return std::make_unique<QueryEngine>(fixture.memory.get(), options);
    case Backend::kDisk:
      return std::make_unique<QueryEngine>(fixture.disk.get(), options);
    case Backend::kSharded:
      return std::make_unique<QueryEngine>(fixture.coordinator.get(),
                                           options);
    case Backend::kLive:
      return std::make_unique<QueryEngine>(fixture.live.get(), options);
  }
  return nullptr;
}

SearchResult DirectSearch(const Fixture& fixture, SequenceView query,
                          double epsilon) {
  const bool verified = fixture.spec->verified;
  switch (fixture.spec->backend) {
    case Backend::kMemory: {
      const SimilaritySearch search(fixture.memory.get());
      return verified ? search.SearchVerified(query, epsilon)
                      : search.Search(query, epsilon);
    }
    case Backend::kDisk:
      return verified ? fixture.disk->SearchVerified(query, epsilon)
                      : fixture.disk->Search(query, epsilon);
    case Backend::kSharded:
      return verified ? fixture.coordinator->SearchVerified(query, epsilon)
                      : fixture.coordinator->Search(query, epsilon);
    case Backend::kLive:
      return verified ? fixture.live->SearchVerified(query, epsilon)
                      : fixture.live->Search(query, epsilon);
  }
  return SearchResult();
}

size_t VisibleSequences(const Fixture& fixture) {
  switch (fixture.spec->backend) {
    case Backend::kMemory:
      return fixture.memory->num_sequences();
    case Backend::kDisk:
      return fixture.disk->num_sequences();
    case Backend::kSharded:
      return fixture.coordinator->num_sequences();
    case Backend::kLive:
      return fixture.live->num_sequences();
  }
  return 0;
}

Reference ComputeReference(const WorkloadSpec& spec, const Corpus& corpus,
                           size_t threads) {
  Reference reference;
  const size_t num_eps = corpus.epsilons.size();
  reference.num_epsilons = num_eps;
  reference.digest.resize(corpus.queries.size() * num_eps);
  if (spec.verified) reference.verified_max.resize(corpus.queries.size());
  const SimilaritySearch search(corpus.reference.get());
  ParallelFor(corpus.queries.size(), threads, [&](size_t q) {
    const SequenceView query = corpus.queries[q].View();
    if (spec.verified) {
      SearchResult result =
          search.SearchVerified(query, corpus.epsilons.back());
      for (SequenceMatch& match : result.matches) {
        match.solution_interval.clear();
        match.solution_interval.shrink_to_fit();
      }
      for (size_t e = 0; e < num_eps; ++e) {
        reference.digest[q * num_eps + e] = ResultDigest(
            Within(result.matches, corpus.epsilons[e]), true);
      }
      reference.verified_max[q] = std::move(result.matches);
    } else {
      for (size_t e = 0; e < num_eps; ++e) {
        reference.digest[q * num_eps + e] = ResultDigest(
            search.Search(query, corpus.epsilons[e]).matches, false);
      }
    }
  });
  return reference;
}

bool CheckServed(const WorkloadSpec& spec, const Reference& reference,
                 size_t query, size_t epsilon, const SearchResult& result) {
  return !result.interrupted &&
         ResultDigest(result.matches, spec.verified) ==
             reference.digest[query * reference.num_epsilons + epsilon];
}

bool CheckLive(const Corpus& corpus, const Reference& reference,
               const std::vector<uint64_t>& live_ids, size_t query,
               size_t epsilon, size_t count, uint64_t digest,
               size_t visible_lo, size_t visible_hi) {
  std::vector<SequenceMatch> expected;
  for (SequenceMatch match :
       Within(reference.verified_max[query], corpus.epsilons[epsilon])) {
    match.sequence_id = live_ids[match.sequence_id];
    if (match.sequence_id != kNotIngested) expected.push_back(match);
  }
  std::sort(expected.begin(), expected.end(),
            [](const SequenceMatch& a, const SequenceMatch& b) {
              return a.sequence_id < b.sequence_id;
            });
  auto below = [&expected](size_t n) {
    return static_cast<size_t>(std::count_if(
        expected.begin(), expected.end(),
        [n](const SequenceMatch& m) { return m.sequence_id < n; }));
  };
  return count >= below(visible_lo) && count <= below(visible_hi) &&
         digest == ResultDigest(expected.data(), count, true);
}

std::vector<std::pair<size_t, size_t>> ScanCheck(
    const WorkloadSpec& spec, const Corpus& corpus,
    const Reference& reference, size_t pairs, uint64_t seed, size_t threads,
    size_t* errors) {
  Rng rng(seed ^ 0x94d049bb133111ebULL);
  std::vector<size_t> order(corpus.queries.size());
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng.engine());
  std::vector<std::pair<size_t, size_t>> sample;
  for (size_t i = 0; i < std::min(pairs, order.size()); ++i) {
    sample.emplace_back(order[i],
                        static_cast<size_t>(rng.UniformInt(
                            0, static_cast<int64_t>(corpus.epsilons.size()) -
                                   1)));
  }

  std::atomic<size_t> bad{0};
  const SequentialScan scan(corpus.reference.get());
  const SimilaritySearch search(corpus.reference.get());
  ParallelFor(sample.size(), threads, [&](size_t i) {
    const auto [q, e] = sample[i];
    const SequenceView query = corpus.queries[q].View();
    const double epsilon = corpus.epsilons[e];
    const std::vector<ScanMatch> truth = scan.Search(query, epsilon);
    bool ok = true;
    if (spec.verified) {
      const std::vector<SequenceMatch> got =
          Within(reference.verified_max[q], epsilon);
      ok = got.size() == truth.size();
      for (size_t k = 0; ok && k < got.size(); ++k) {
        ok = got[k].sequence_id == truth[k].sequence_id &&
             std::fabs(got[k].exact_distance - truth[k].distance) <= 1e-9;
      }
    } else {
      const SearchResult got = search.Search(query, epsilon);
      ok = ResultDigest(got.matches, false) ==
           reference.digest[q * reference.num_epsilons + e];
      for (const ScanMatch& match : truth) {
        ok = ok && std::binary_search(
                       got.matches.begin(), got.matches.end(), match,
                       [](const auto& a, const auto& b) {
                         return a.sequence_id < b.sequence_id;
                       });
      }
    }
    if (!ok) {
      std::fprintf(stderr,
                   "mdseq_e2e: %s query %zu eps %.2f disagrees with the "
                   "sequential scan (%zu true matches)\n",
                   spec.name, q, epsilon, truth.size());
      bad.fetch_add(1);
    }
  });
  *errors = bad.load();
  return sample;
}

RequestStream::RequestStream(uint64_t seed, size_t queries, size_t epsilons)
    : rng_(seed),
      epsilons_(epsilons),
      order_(queries * epsilons),
      next_(order_.size()) {
  std::iota(order_.begin(), order_.end(), 0);
}

std::pair<size_t, size_t> RequestStream::Next() {
  if (next_ == order_.size()) {
    std::shuffle(order_.begin(), order_.end(), rng_.engine());
    next_ = 0;
  }
  const size_t pair = order_[next_++];
  return {pair / epsilons_, pair % epsilons_};
}

}  // namespace mdseq::e2e
