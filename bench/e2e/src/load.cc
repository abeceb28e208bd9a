// Open-loop load generation: one generator thread sends seeded Poisson
// arrivals into the engine on schedule, whatever the engine's state; a
// collector thread resolves the futures in order and checks every answer.

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <limits>
#include <mutex>
#include <thread>

#include "e2e.h"

namespace mdseq::e2e {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr auto kSampleEvery = std::chrono::milliseconds(10);

// One submitted operation awaiting completion.
struct Sent {
  bool write = false;
  std::future<QueryOutcome> read;
  std::future<IngestOutcome> written;
  Clock::time_point due;
  Clock::time_point submitted;
  bool measured = false;
  size_t query = 0;
  size_t epsilon = 0;
  size_t visible_lo = 0;
  /// Writes: the corpus index of the sequence written.
  size_t corpus_id = 0;
};

// A live read, checked once the phase's writes have resolved.
struct LiveRead {
  size_t query = 0;
  size_t epsilon = 0;
  size_t visible_lo = 0;
  size_t visible_hi = 0;
  size_t count = 0;
  uint64_t digest = 0;
  /// Index into LoadResult::latency_ms, or -1 when not measured.
  ptrdiff_t latency_index = -1;
};

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

void ReportWrong(const WorkloadSpec& spec, const Corpus& corpus, size_t query,
                 size_t epsilon, uint64_t* wrong) {
  if ((*wrong)++ < 5) {
    std::fprintf(stderr, "mdseq_e2e: %s wrong answer: query %zu eps %.2f\n",
                 spec.name, query, corpus.epsilons[epsilon]);
  }
}

}  // namespace

uint64_t InFlight(const QueryEngine& engine) {
  const EngineStats s = engine.stats();
  return s.submitted - s.served - s.rejected - s.shed - s.deadline_expired -
         s.cancelled;
}

double ResidentMb() {
  std::FILE* file = std::fopen("/proc/self/statm", "r");
  if (file == nullptr) return 0.0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int read = std::fscanf(file, "%llu %llu", &size, &resident);
  std::fclose(file);
  if (read != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const double frac = rank - static_cast<double>(lo);
  if (frac == 0.0 || lo + 1 >= values.size()) return values[lo];
  if (std::isinf(values[lo + 1])) return kInf;
  return values[lo] + frac * (values[lo + 1] - values[lo]);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

LoadGenerator::LoadGenerator(Fixture* fixture, const Corpus* corpus,
                             const Reference* reference, uint64_t seed)
    : fixture_(fixture),
      corpus_(corpus),
      reference_(reference),
      stream_(StreamSeed(seed), corpus->queries.size(),
              corpus->epsilons.size()),
      arrivals_(seed ^ 0x8cb92ba72f3d8dd7ULL),
      next_write_(corpus->base_count),
      live_ids_(corpus->reference->num_sequences(), kNotIngested) {
  for (size_t id = 0; id < corpus->base_count; ++id) live_ids_[id] = id;
}

LoadResult LoadGenerator::Run(const LoadPhase& phase) {
  LoadResult out;
  QueryEngine& engine = *fixture_->engine;
  const WorkloadSpec& spec = *fixture_->spec;
  const bool writes = spec.backend == Backend::kLive;
  // Little's law: at the limit every request meets the SLO, so the engine
  // holds about rate * SLO requests plus one per worker.
  const double backlog_limit =
      static_cast<double>(engine.num_threads()) +
      phase.qps * spec.slo_ms / 1000.0;

  // Writes wait in the generator rather than being refused by the engine's
  // write admission; they keep their due time, so the wait is charged.
  const size_t max_pending_writes = EngineOptions().max_pending_ingest;
  std::atomic<size_t> pending_writes{0};

  std::mutex mutex;
  std::condition_variable ready;
  std::deque<Sent> queue;
  bool done = false;
  // The collector owns latency_ms, write_ms, failed, wrong, live_reads and
  // live_ids_ until joined. Latencies come from engine timestamps, so it
  // may lag; it runs at idle priority to keep the generator's CPU free.
  std::vector<LiveRead> live_reads;
  std::thread collector([&] {
    const sched_param idle{};
    pthread_setschedparam(pthread_self(), SCHED_IDLE, &idle);
    while (true) {
      Sent sent;
      {
        std::unique_lock<std::mutex> lock(mutex);
        ready.wait(lock, [&] { return done || !queue.empty(); });
        if (queue.empty()) return;
        sent = std::move(queue.front());
        queue.pop_front();
      }
      const double lag_ms = Ms(sent.due, sent.submitted);
      if (sent.write) {
        const IngestOutcome outcome = sent.written.get();
        --pending_writes;
        const bool ok = !outcome.rejected && outcome.ok &&
                        outcome.sequence_ids.size() == 1;
        if (ok) {
          live_ids_[sent.corpus_id] = outcome.sequence_ids.front();
        } else {
          ++out.failed;
        }
        if (sent.measured) {
          out.write_ms.push_back(
              ok ? lag_ms + static_cast<double>(outcome.latency.count()) / 1e3
                 : kInf);
        }
        continue;
      }
      const QueryOutcome outcome = sent.read.get();
      bool ok = outcome.status == QueryStatus::kOk;
      if (!ok) {
        ++out.failed;
      } else if (writes) {
        live_reads.push_back(LiveRead{
            sent.query, sent.epsilon, sent.visible_lo,
            VisibleSequences(*fixture_), outcome.result.matches.size(),
            ResultDigest(outcome.result.matches, spec.verified),
            sent.measured ? static_cast<ptrdiff_t>(out.latency_ms.size())
                          : -1});
      } else if (!CheckServed(spec, *reference_, sent.query, sent.epsilon,
                              outcome.result)) {
        ok = false;
        ReportWrong(spec, *corpus_, sent.query, sent.epsilon, &out.wrong);
      }
      if (sent.measured) {
        out.latency_ms.push_back(
            ok ? lag_ms + static_cast<double>(outcome.latency.count()) / 1e3
               : kInf);
      }
    }
  });

  // The generator sleeps between arrivals; real-time priority (where the
  // process may take it) wakes it on time although all workers are busy.
  int policy = 0;
  sched_param saved{};
  pthread_getschedparam(pthread_self(), &policy, &saved);
  sched_param realtime{};
  realtime.sched_priority = 1;
  out.realtime =
      pthread_setschedparam(pthread_self(), SCHED_FIFO, &realtime) == 0;

  auto gap = [&] {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(-std::log1p(-arrivals_.Uniform()) /
                                      phase.qps));
  };
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  const Clock::time_point measure_start =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(phase.warmup_s));
  const Clock::time_point end =
      measure_start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(phase.measure_s));
  const Clock::duration write_every =
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(kWriteIntervalS));
  Clock::time_point next_read = start + gap();
  Clock::time_point next_write =
      writes ? start : Clock::time_point::max();
  // A write held back by the admission limit is retried from here on.
  Clock::time_point write_retry = Clock::time_point::min();
  Clock::time_point next_sample = start;

  auto sample = [&] {
    out.queue_depth_max = std::max(out.queue_depth_max, engine.queue_depth());
    out.rss_peak_mb = std::max(out.rss_peak_mb, ResidentMb());
    ++out.samples;
  };
  while (true) {
    const Clock::time_point write_at = std::max(next_write, write_retry);
    const bool write = write_at <= next_read;
    const Clock::time_point due = write ? write_at : next_read;
    if (due >= end) break;
    const Clock::time_point now = Clock::now();
    if (now >= next_sample) {
      sample();
      next_sample = now + kSampleEvery;
      if (phase.abort_backlog &&
          static_cast<double>(InFlight(engine)) > 4.0 * backlog_limit) {
        out.aborted = true;
        break;
      }
      continue;
    }
    if (now < due) {
      std::this_thread::sleep_until(std::min(due, next_sample));
      continue;
    }
    Sent sent;
    if (write) {
      if (pending_writes.load() >= max_pending_writes) {
        write_retry = now + std::chrono::milliseconds(1);
        continue;
      }
      sent.write = true;
      sent.due = next_write;
      sent.corpus_id = next_write_++;
      IngestBatch batch;
      IngestOp op;
      op.points = corpus_->reference->sequence(sent.corpus_id);
      op.seal = true;
      batch.ops.push_back(std::move(op));
      next_write = next_write_ < corpus_->reference->num_sequences()
                       ? next_write + write_every
                       : Clock::time_point::max();
      ++pending_writes;
      sent.submitted = Clock::now();
      sent.written = engine.SubmitIngest(std::move(batch));
    } else {
      sent.due = next_read;
      std::tie(sent.query, sent.epsilon) = stream_.Next();
      QueryOptions options;
      options.epsilon = corpus_->epsilons[sent.epsilon];
      options.verified = spec.verified;
      sent.visible_lo = VisibleSequences(*fixture_);
      next_read += gap();
      sent.submitted = Clock::now();
      sent.read = engine.Submit(corpus_->queries[sent.query], options);
      out.gen_lag_ms.push_back(Ms(sent.due, sent.submitted));
    }
    sent.measured = sent.due >= measure_start;
    ++out.attempted;
    {
      std::lock_guard<std::mutex> lock(mutex);
      queue.push_back(std::move(sent));
    }
    ready.notify_one();
  }
  if (out.realtime) pthread_setschedparam(pthread_self(), policy, &saved);
  out.backlog_grew = static_cast<double>(InFlight(engine)) > backlog_limit;
  sample();
  {
    std::lock_guard<std::mutex> lock(mutex);
    done = true;
  }
  ready.notify_one();
  collector.join();

  // Every write of the phase has resolved, so every live id a read could
  // have returned is mapped.
  for (const LiveRead& read : live_reads) {
    if (CheckLive(*corpus_, *reference_, live_ids_, read.query, read.epsilon,
                  read.count, read.digest, read.visible_lo,
                  read.visible_hi)) {
      continue;
    }
    ReportWrong(spec, *corpus_, read.query, read.epsilon, &out.wrong);
    if (read.latency_index >= 0) out.latency_ms[read.latency_index] = kInf;
  }
  return out;
}

}  // namespace mdseq::e2e
