// Traced run: replays the seeded request stream single-threaded and
// closed-loop through each layer's public entry points, timing every call
// from outside, and reports mean per-request costs that add up. Only
// public, non-internal functions are called, so refactors of the search
// pipeline cannot break the breakdown.
//
// Every layer is measured on every workload, over that workload's corpus
// and requests. A layer a workload does not serve through (verification on
// the filter workloads, shards off the sharded one, ...) runs on a side
// copy built here, so the number says what the layer would cost this
// workload; README.md lists which layer metric moves which end-to-end
// metric on which workload.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "baseline/sequential_scan.h"
#include "core/distance.h"
#include "core/partitioning.h"
#include "e2e.h"
#include "shard/message.h"

namespace mdseq::e2e {

namespace {

double UsSince(Clock::time_point start) {
  return MicrosBetween(start, Clock::now());
}

// The storage tier a traced request's filter and reads go through.
struct Storage {
  const DiskDatabase* disk = nullptr;
  const LiveDatabase* live = nullptr;

  const BufferPool& pool() const {
    return disk != nullptr ? disk->pool() : live->pool();
  }
  SearchResult Search(SequenceView query, double epsilon) const {
    return disk != nullptr ? disk->Search(query, epsilon)
                           : live->Search(query, epsilon);
  }
  std::optional<Sequence> Read(size_t id) const {
    return disk != nullptr ? disk->ReadSequence(id) : live->ReadSequence(id);
  }
};

// Per-layer sums over the replayed requests.
struct Sums {
  double partition_us = 0, probe_us = 0, search_us = 0, verify_us = 0;
  double direct_us = 0, chain_us = 0;
  double query_mbrs = 0, node_visits = 0, candidates = 0;
  double phase2 = 0, prefilter_survivors = 0, dnorm_evals = 0;
  double filter_matches = 0, verify_abandons = 0, verify_bytes = 0;
  double storage_filter_us = 0, storage_read_us = 0;
  double page_hits = 0, page_misses = 0, evictions = 0;
  double codec_us = 0, response_bytes = 0, execute_max_us = 0;
  double execute_skew = 0, fanout_residual_us = 0;
  double ingest_search_us = 0;
};

void RemoveFiles(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

}  // namespace

std::vector<Metric> RunTraced(
    Fixture* fixture, const Corpus& corpus, const Reference& reference,
    const Scale& scale,
    const std::vector<std::pair<size_t, size_t>>& scan_pairs,
    const std::string& workdir, uint64_t seed, double seconds,
    uint64_t* attempted, uint64_t* failed, uint64_t* wrong) {
  const WorkloadSpec& spec = *fixture->spec;
  const size_t threads = fixture->engine->num_threads();
  const size_t requests = scale.traced_requests;
  auto expect = [&](bool ok, const char* what, size_t request) {
    if (ok) return;
    if ((*wrong)++ < 5) {
      std::fprintf(stderr, "mdseq_e2e: %s traced request %zu: %s\n",
                   spec.name, request, what);
    }
  };

  // 1. Engine queueing under the fixed open-loop rate.
  LoadGenerator generator(fixture, &corpus, &reference, seed);
  const LoadResult load = generator.Run(LoadPhase{
      spec.fixed_qps, scale.warmup_s, std::max(0.5, 0.25 * seconds), false});
  *attempted += load.attempted;
  *failed += load.failed;
  *wrong += load.wrong;

  // The in-memory database the core chain runs on: the reference itself,
  // or, for the live workload, the sequences its snapshot now holds, in
  // live-id order.
  const size_t visible = VisibleSequences(*fixture);
  std::unique_ptr<SequenceDatabase> live_memory;
  const SequenceDatabase* memory = corpus.reference.get();
  if (spec.backend == Backend::kLive) {
    const std::vector<uint64_t>& live_ids = generator.live_ids();
    std::vector<size_t> corpus_of(visible);
    for (size_t id = 0; id < live_ids.size(); ++id) {
      if (live_ids[id] < visible) corpus_of[live_ids[id]] = id;
    }
    live_memory = std::make_unique<SequenceDatabase>(
        memory->dim(), memory->options());
    for (const size_t id : corpus_of) live_memory->Add(memory->sequence(id));
    memory = live_memory.get();
  }
  auto right = [&](size_t q, size_t e, const SearchResult& result) {
    if (spec.backend != Backend::kLive) {
      return CheckServed(spec, reference, q, e, result);
    }
    return CheckLive(corpus, reference, generator.live_ids(), q, e,
                     result.matches.size(),
                     ResultDigest(result.matches, true), visible, visible);
  };

  // Side copies for the layers this workload does not serve through.
  const std::string side_path = workdir + "/" + spec.name + "-side-" +
                                std::to_string(::getpid()) + ".mdseq";
  const std::string ingest_path = workdir + "/" + spec.name + "-ingest-" +
                                  std::to_string(::getpid()) + ".mdseq";
  std::unique_ptr<DiskDatabase> side_disk;
  Storage storage{fixture->disk.get(), fixture->live.get()};
  if (storage.disk == nullptr && storage.live == nullptr) {
    if (!DiskDatabase::Save(*memory, side_path)) Fail("cannot write side db");
    side_disk = std::make_unique<DiskDatabase>(side_path, kColdPoolPages);
    if (!side_disk->valid()) Fail("cannot open side db");
    storage.disk = side_disk.get();
  }
  std::unique_ptr<ShardSet> side_shards;
  std::unique_ptr<LoopbackTransport> side_transport;
  std::unique_ptr<Coordinator> side_coordinator;
  const ShardSet* shards = fixture->shards.get();
  const Coordinator* coordinator = fixture->coordinator.get();
  if (coordinator == nullptr) {
    side_shards =
        ShardSet::BuildInMemory(*memory, kShards, PlacementPolicy::kHash);
    side_transport = std::make_unique<LoopbackTransport>(side_shards->nodes());
    CoordinatorOptions options;
    options.fanout_threads = threads;
    side_coordinator = std::make_unique<Coordinator>(
        side_transport.get(), side_shards->placement(), options);
    shards = side_shards.get();
    coordinator = side_coordinator.get();
  }
  // The ingest layer appends to a live database holding this corpus: the
  // live workload's own, else a copy of the disk file opened live.
  std::unique_ptr<LiveDatabase> side_live;
  LiveDatabase* live = fixture->live.get();
  if (live == nullptr) {
    std::error_code ec;
    std::filesystem::copy_file(
        storage.disk == fixture->disk.get() ? fixture->path : side_path,
        ingest_path, std::filesystem::copy_options::overwrite_existing, ec);
    if (ec) Fail("cannot copy the disk file for the ingest layer");
    LiveDatabaseOptions options;
    options.pool_pages = kLivePoolPages;
    side_live = std::make_unique<LiveDatabase>(ingest_path, options);
    if (!side_live->valid()) Fail("cannot open the ingest copy live");
    live = side_live.get();
  }

  std::vector<std::pair<size_t, size_t>> replay;
  RequestStream stream(StreamSeed(seed), corpus.queries.size(),
                       corpus.epsilons.size());
  for (size_t i = 0; i < requests; ++i) replay.push_back(stream.Next());

  // 2. Engine overhead: idle one-worker engine vs the direct backend call,
  // after an untimed warm-up call and alternating which goes first, so
  // cache and pool state favour neither.
  std::vector<uint64_t> digests(requests);
  double engine_us = 0.0;
  double direct_us = 0.0;
  {
    const std::unique_ptr<QueryEngine> engine =
        EngineFor(*fixture, MakeEngineOptions(1));
    for (size_t i = 0; i < requests; ++i) {
      const auto [q, e] = replay[i];
      QueryOptions options;
      options.epsilon = corpus.epsilons[e];
      options.verified = spec.verified;
      QueryOutcome outcome;
      SearchResult direct;
      auto via_engine = [&] {
        const Clock::time_point start = Clock::now();
        outcome = engine->Submit(corpus.queries[q], options).get();
        engine_us += UsSince(start);
      };
      auto via_direct = [&] {
        const Clock::time_point start = Clock::now();
        direct = DirectSearch(*fixture, corpus.queries[q].View(),
                              options.epsilon);
        direct_us += UsSince(start);
      };
      DirectSearch(*fixture, corpus.queries[q].View(), options.epsilon);
      if (i % 2 == 0) {
        via_engine();
        via_direct();
      } else {
        via_direct();
        via_engine();
      }
      *attempted += 2;
      if (outcome.status != QueryStatus::kOk) ++*failed;
      digests[i] = ResultDigest(direct.matches, spec.verified);
      expect(outcome.status != QueryStatus::kOk ||
                 ResultDigest(outcome.result.matches, spec.verified) ==
                     digests[i],
             "engine and direct digests differ", i);
      expect(right(q, e, direct), "direct answer is wrong", i);
    }
  }

  // 3. The layer chain.
  Sums sums;
  const SimilaritySearch search(memory);
  const double corpus_size = static_cast<double>(memory->num_sequences());
  for (size_t i = 0; i < requests; ++i) {
    const auto [q, e] = replay[i];
    const SequenceView query = corpus.queries[q].View();
    const double epsilon = corpus.epsilons[e];

    // core + index: partition, probe, Phase 3 (Search minus both), verify.
    // The chain and the direct call run in alternating order after one
    // untimed warm-up call, so both see this query's data in cache.
    SearchResult filtered;
    std::vector<SequenceMatch> verified;
    auto verify = [&] {
      const Clock::time_point start = Clock::now();
      for (const SequenceMatch& match : filtered.matches) {
        const SequenceView data = memory->sequence(match.sequence_id).View();
        sums.verify_bytes += static_cast<double>(data.size() * data.dim() *
                                                 sizeof(double));
        const double exact = SequenceDistanceBounded(query, data, epsilon);
        if (exact > epsilon) {
          sums.verify_abandons += 1;
          continue;
        }
        SequenceMatch kept = match;
        kept.exact_distance = exact;
        kept.solution_interval = ExactSolutionInterval(query, data, epsilon);
        verified.push_back(std::move(kept));
      }
      const double verify_us = UsSince(start);
      sums.verify_us += verify_us;
      return verify_us;
    };
    double chain_us = 0.0;
    auto chain = [&] {
      Clock::time_point start = Clock::now();
      const Partition partition =
          PartitionSequence(query, memory->options().partitioning);
      sums.partition_us += UsSince(start);
      std::vector<Mbr> mbrs;
      for (const SequenceMbr& piece : partition) mbrs.push_back(piece.mbr);
      std::vector<std::vector<SpatialIndex::BatchHit>> hits;
      start = Clock::now();
      sums.node_visits += static_cast<double>(
          memory->index().RangeSearchBatch(mbrs, epsilon, &hits));
      sums.probe_us += UsSince(start);
      std::vector<size_t> ids;
      for (const auto& per_probe : hits) {
        for (const SpatialIndex::BatchHit& hit : per_probe) {
          ids.push_back(SequenceDatabase::UnpackSequenceId(hit.value));
        }
      }
      std::sort(ids.begin(), ids.end());
      sums.candidates += static_cast<double>(
          std::unique(ids.begin(), ids.end()) - ids.begin());

      start = Clock::now();
      filtered = search.Search(query, epsilon);
      chain_us = UsSince(start);
      sums.search_us += chain_us;
      if (spec.verified) chain_us += verify();
    };
    SearchResult direct;
    double direct_core_us = 0.0;
    auto direct_core = [&] {
      const Clock::time_point start = Clock::now();
      direct = spec.verified ? search.SearchVerified(query, epsilon)
                             : search.Search(query, epsilon);
      direct_core_us = UsSince(start);
    };
    direct_core();
    if (i % 2 == 0) {
      chain();
      direct_core();
    } else {
      direct_core();
      chain();
    }
    // On the filter workloads verification is what the refine step would
    // cost; it is outside the chain the direct call is compared with.
    if (!spec.verified) verify();
    sums.chain_us += chain_us;
    sums.direct_us += direct_core_us;
    const SearchStats& stats = filtered.stats;
    sums.query_mbrs += static_cast<double>(stats.query_mbrs);
    sums.phase2 += static_cast<double>(stats.phase2_candidates);
    sums.prefilter_survivors += static_cast<double>(stats.prefilter_survivors);
    sums.dnorm_evals += static_cast<double>(stats.dnorm_evaluations);
    sums.filter_matches += static_cast<double>(filtered.matches.size());
    const uint64_t chain_digest =
        spec.verified ? ResultDigest(verified, true)
                      : ResultDigest(filtered.matches, false);
    expect(chain_digest == ResultDigest(direct.matches, spec.verified),
           "chain and direct in-memory digests differ", i);
    expect(chain_digest == digests[i], "chain and served digests differ", i);

    // storage: the paged filter, then one read per filter match.
    {
      const BufferPool& pool = storage.pool();
      const uint64_t hits0 = pool.hits();
      const uint64_t misses0 = pool.misses();
      const uint64_t evictions0 = pool.evictions();
      Clock::time_point start = Clock::now();
      const SearchResult paged = storage.Search(query, epsilon);
      sums.storage_filter_us += UsSince(start);
      start = Clock::now();
      for (const SequenceMatch& match : paged.matches) {
        expect(storage.Read(match.sequence_id).has_value(),
               "sequence read failed", i);
      }
      sums.storage_read_us += UsSince(start);
      sums.page_hits += static_cast<double>(pool.hits() - hits0);
      sums.page_misses += static_cast<double>(pool.misses() - misses0);
      sums.evictions += static_cast<double>(pool.evictions() - evictions0);
      expect(ResultDigest(paged.matches, false) ==
                 ResultDigest(filtered.matches, false),
             "paged and in-memory filters differ", i);
    }

    // shard: the loopback round trip unrolled, then the real coordinator.
    {
      ShardRequest request;
      request.rpc = spec.verified ? ShardRpc::kSearchVerified
                                  : ShardRpc::kSearch;
      request.epsilon = epsilon;
      request.query = query.Materialize();
      std::vector<SequenceMatch> merged;
      double slowest_us = 0.0;
      double execute_sum = 0.0;
      double execute_max = 0.0;
      for (size_t s = 0; s < shards->num_shards(); ++s) {
        Clock::time_point start = Clock::now();
        ShardRequest decoded;
        const bool request_ok =
            DecodeShardRequest(EncodeShardRequest(request), &decoded);
        const double encode_us = UsSince(start);
        start = Clock::now();
        const ShardResponse response = shards->node(s)->Execute(decoded);
        const double execute_us = UsSince(start);
        start = Clock::now();
        const std::string wire = EncodeShardResponse(response);
        ShardResponse received;
        const bool response_ok = DecodeShardResponse(wire, &received);
        const double decode_us = UsSince(start);
        expect(request_ok && response_ok && received.ok,
               "shard round trip failed", i);
        sums.codec_us += encode_us + decode_us;
        sums.response_bytes += static_cast<double>(wire.size());
        execute_sum += execute_us;
        execute_max = std::max(execute_max, execute_us);
        slowest_us = std::max(slowest_us, encode_us + execute_us + decode_us);
        for (const ShardMatch& match : received.matches) {
          SequenceMatch global;
          global.sequence_id = static_cast<size_t>(
              shards->placement()->GlobalOf(static_cast<uint32_t>(s),
                                            match.local_id));
          global.min_dnorm = match.min_dnorm;
          global.exact_distance = match.exact_distance;
          merged.push_back(std::move(global));
        }
      }
      const Clock::time_point start = Clock::now();
      const SearchResult fanned =
          spec.verified ? coordinator->SearchVerified(query, epsilon)
                        : coordinator->Search(query, epsilon);
      sums.fanout_residual_us += UsSince(start) - slowest_us;
      sums.execute_max_us += execute_max;
      sums.execute_skew +=
          execute_sum > 0.0
              ? execute_max * static_cast<double>(shards->num_shards()) /
                    execute_sum
              : 1.0;
      expect(ResultDigest(merged, spec.verified) == chain_digest &&
                 ResultDigest(fanned.matches, spec.verified) == chain_digest,
             "sharded and single-database digests differ", i);
    }

    // ingest: the live backend's query path over the same sequences.
    {
      const Clock::time_point start = Clock::now();
      const SearchResult snapshot =
          spec.verified ? live->SearchVerified(query, epsilon)
                        : live->Search(query, epsilon);
      sums.ingest_search_us += UsSince(start);
      expect(ResultDigest(snapshot.matches, spec.verified) == chain_digest,
             "live and in-memory digests differ", i);
    }
  }

  // 4. Instrumentation price: plain and instrumented engines in ABBA
  // passes over the same requests, each pass about `obs_pass_s` long.
  const double mean_direct_us = direct_us / static_cast<double>(requests);
  const size_t rounds = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(
             scale.obs_pass_s * 1e6 * static_cast<double>(threads) /
             (mean_direct_us * static_cast<double>(requests)))));
  std::vector<double> plain_s;
  std::vector<double> instrumented_s;
  for (const bool instrumented :
       {false, true, true, false, true, false, false, true}) {
    EngineOptions options = MakeEngineOptions(threads);
    if (instrumented) {
      options.metrics = &fixture->registry;
      options.trace_capacity = 1024;
    }
    const std::unique_ptr<QueryEngine> engine = EngineFor(*fixture, options);
    std::vector<std::future<QueryOutcome>> futures;
    const Clock::time_point start = Clock::now();
    for (size_t round = 0; round < rounds; ++round) {
      for (const auto& [q, e] : replay) {
        QueryOptions query_options;
        query_options.epsilon = corpus.epsilons[e];
        query_options.verified = spec.verified;
        futures.push_back(engine->Submit(corpus.queries[q], query_options));
      }
    }
    for (size_t k = 0; k < futures.size(); ++k) {
      const QueryOutcome outcome = futures[k].get();
      ++*attempted;
      if (outcome.status != QueryStatus::kOk) ++*failed;
      expect(ResultDigest(outcome.result.matches, spec.verified) ==
                 digests[k % requests],
             "instrumented pass digest differs", k % requests);
    }
    (instrumented ? instrumented_s : plain_s)
        .push_back(SecondsBetween(start, Clock::now()));
  }

  // 5. Figure 10: the workload's scan against its own method, on the
  // correctness sample. The disk and live scans read every sequence
  // through their buffer pools.
  double scan_us = 0.0;
  double method_us = 0.0;
  {
    const Storage tier{fixture->disk.get(), fixture->live.get()};
    const bool paged = tier.disk != nullptr || tier.live != nullptr;
    const SequentialScan scan(memory);
    for (const auto& [q, e] : scan_pairs) {
      const SequenceView query = corpus.queries[q].View();
      const double epsilon = corpus.epsilons[e];
      Clock::time_point start = Clock::now();
      DirectSearch(*fixture, query, epsilon);
      method_us += UsSince(start);
      start = Clock::now();
      if (!paged) {
        scan.Search(query, epsilon);
      } else {
        for (size_t id = 0; id < visible; ++id) {
          const std::optional<Sequence> data = tier.Read(id);
          if (!data.has_value()) Fail("scan read failed");
          if (SequenceDistance(query, data->View()) <= epsilon) {
            ExactSolutionInterval(query, data->View(), epsilon);
          }
        }
      }
      scan_us += UsSince(start);
    }
  }

  // 6. Ingest, last because it grows the live database: direct appends and
  // commits, then writes through an engine.
  const size_t writes = scale.ingest_writes;
  std::vector<const Sequence*> to_write;
  if (spec.backend == Backend::kLive) {
    const size_t next = generator.next_write();
    for (size_t k = 0; k < 2 * writes; ++k) {
      if (next + k >= corpus.reference->num_sequences()) {
        Fail("live workload ran out of sequences to ingest");
      }
      to_write.push_back(&corpus.reference->sequence(next + k));
    }
  } else {
    for (const Sequence& sequence : corpus.extra) to_write.push_back(&sequence);
  }
  double append_us = 0.0;
  double commit_us = 0.0;
  double user_bytes = 0.0;
  const IngestStatus before = live->Status();
  for (size_t k = 0; k < writes; ++k) {
    const Sequence& sequence = *to_write[k];
    Clock::time_point start = Clock::now();
    const uint64_t id = live->BeginSequence();
    const bool appended = live->AppendPoints(id, sequence.View()) &&
                          live->SealSequence(id);
    append_us += UsSince(start);
    start = Clock::now();
    const bool committed = live->Commit();
    commit_us += UsSince(start);
    ++*attempted;
    if (!appended || !committed) ++*failed;
    user_bytes += static_cast<double>(sequence.size() * sequence.dim() *
                                      sizeof(double));
  }
  const IngestStatus after = live->Status();
  std::vector<double> write_ms;
  {
    std::unique_ptr<QueryEngine> side_engine;
    QueryEngine* engine = fixture->engine.get();
    if (spec.backend != Backend::kLive) {
      side_engine = std::make_unique<QueryEngine>(live, MakeEngineOptions(1));
      engine = side_engine.get();
    }
    for (size_t k = writes; k < 2 * writes; ++k) {
      IngestBatch batch;
      IngestOp op;
      op.points = *to_write[k];
      op.seal = true;
      batch.ops.push_back(std::move(op));
      const Clock::time_point start = Clock::now();
      const IngestOutcome outcome =
          engine->SubmitIngest(std::move(batch)).get();
      write_ms.push_back(UsSince(start) / 1e3);
      ++*attempted;
      if (outcome.rejected || !outcome.ok) ++*failed;
    }
  }

  side_live.reset();
  side_coordinator.reset();
  side_disk.reset();
  RemoveFiles(side_path);
  RemoveFiles(ingest_path);

  const double n = static_cast<double>(requests);
  const double fsyncs = static_cast<double>(after.wal_fsyncs -
                                            before.wal_fsyncs);
  const double wal_bytes = static_cast<double>(after.wal_bytes -
                                               before.wal_bytes);
  auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 1.0;
  };
  const double page_accesses = sums.page_hits + sums.page_misses;
  return {
      {"engine.overhead_us", (engine_us - direct_us) / n, "us", requests},
      {"engine.queue_depth_max", static_cast<double>(load.queue_depth_max),
       "count", load.samples},
      {"bench.gen_lag_ms_p99", Percentile(load.gen_lag_ms, 99.0), "ms",
       load.gen_lag_ms.size()},
      {"core.partition_us", sums.partition_us / n, "us", requests},
      {"core.query_mbrs", sums.query_mbrs / n, "count", requests},
      {"core.phase3_us",
       (sums.search_us - sums.partition_us - sums.probe_us) / n, "us",
       requests},
      {"core.phase3_candidates", sums.phase2 / n, "count", requests},
      {"core.prefilter_survivor_ratio",
       ratio(sums.prefilter_survivors, sums.phase2), "ratio", requests},
      {"core.dnorm_evals", sums.dnorm_evals / n, "count", requests},
      {"core.dnorm_survivor_ratio",
       ratio(sums.filter_matches, sums.prefilter_survivors), "ratio",
       requests},
      {"core.verify_us", sums.verify_us / n, "us", requests},
      {"core.verify_abandon_ratio",
       ratio(sums.verify_abandons, sums.filter_matches), "ratio", requests},
      {"core.verify_bytes", sums.verify_bytes / n, "bytes", requests},
      {"core.residual_pct",
       100.0 * (sums.direct_us - sums.chain_us) / sums.direct_us, "%",
       requests},
      {"index.probe_us", sums.probe_us / n, "us", requests},
      {"index.node_visits", sums.node_visits / n, "count", requests},
      {"index.candidate_ratio", sums.candidates / (n * corpus_size),
       "ratio", requests},
      {"storage.filter_us", sums.storage_filter_us / n, "us", requests},
      {"storage.read_us", sums.storage_read_us / n, "us", requests},
      {"storage.page_misses", sums.page_misses / n, "count", requests},
      {"storage.hit_rate", ratio(sums.page_hits, page_accesses), "ratio",
       requests},
      {"storage.evictions", sums.evictions / n, "count", requests},
      {"shard.codec_us", sums.codec_us / n, "us", requests},
      {"shard.response_bytes", sums.response_bytes / n, "bytes", requests},
      {"shard.execute_max_us", sums.execute_max_us / n, "us", requests},
      {"shard.execute_skew", sums.execute_skew / n, "ratio", requests},
      {"shard.fanout_residual_us", sums.fanout_residual_us / n, "us",
       requests},
      {"ingest.append_us", append_us / static_cast<double>(writes), "us",
       writes},
      {"ingest.commit_us", commit_us / static_cast<double>(writes), "us",
       writes},
      {"ingest.fsyncs_per_commit", fsyncs / static_cast<double>(writes),
       "count", writes},
      {"ingest.wal_bytes_per_byte", ratio(wal_bytes, user_bytes), "ratio",
       writes},
      {"ingest.search_us", sums.ingest_search_us / n, "us", requests},
      {"ingest.write_p50_ms", Percentile(write_ms, 50.0), "ms",
       write_ms.size()},
      {"ingest.write_p95_ms", Percentile(write_ms, 95.0), "ms",
       write_ms.size()},
      {"obs.overhead_pct",
       100.0 * (Median(instrumented_s) / Median(plain_s) - 1.0), "%",
       plain_s.size() + instrumented_s.size()},
      {"baseline.scan_speedup", ratio(scan_us, method_us), "x",
       scan_pairs.size()},
  };
}

}  // namespace mdseq::e2e
