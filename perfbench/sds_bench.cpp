// SDS-Sort benchmark driver: end-to-end throughput, load balance and wire
// volume of sds_sort on the simulated cluster, and a traced replay of the
// driver's stages that splits one sort into runtime, kernel and algorithm
// layers.
//
// Usage:
//   sds_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//
// Everything runs in this one process: a sim::Cluster with the zero-cost
// NetworkModel::none(), so wall time measures the program rather than the
// network model's sleeps. Each rank generates its own shard from the seed;
// sds_sort only ever sees that shard. perfbench/README.md documents the
// workloads and every metric. The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics for --trace 0 and the per-layer metrics for
// --trace 1. The exit code is nonzero when any sort, the verifier
// self-check, the replay comparison or the determinism check fails.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sdss.hpp"
#include "sortcore/kernel_stats.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "workloads/generators.hpp"
#include "workloads/types.hpp"
#include "workloads/zipf.hpp"

namespace {

using namespace sdss;
using Tag = workloads::Tagged<std::uint64_t>;

struct TagKey {
  std::uint64_t operator()(const Tag& r) const { return r.key; }
};

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  int ranks;
  std::size_t per_rank;
  int workers;         ///< scheduler worker threads
  int cores_per_node;  ///< c: the local sorts' shared-memory parallelism
  bool stable;  ///< stable mode on Zipf keys with an origin payload (Tag);
                ///< otherwise fast mode on uniform u64 keys
};

// Each stresses a different layer; perfbench/README.md says why. Only
// kernel-bound runs two threads: on a shared 4-vCPU host, the wall time of
// runtime-bound at 2 workers and of skew-stable at c=4 swung by up to 2.5x
// between runs with the host's CPU steal, which no regression bound absorbs.
constexpr Workload kWorkloads[] = {
    {"kernel-bound", 64, 200000, 2, 1, false},
    {"runtime-bound", 512, 4000, 1, 1, false},
    {"skew-stable", 64, 200000, 1, 1, true},
};

constexpr double kZipfAlpha = 1.4;
constexpr std::uint64_t kUniverse = std::uint64_t{1} << 62;
constexpr int kWarmupSorts = 2;      // untimed sorts before the timed loop
constexpr int kSetupReps = 5;        // extra set-ups timed for setup_s
constexpr int kProbeReps = 3;        // repetitions of the layer probes ...
constexpr double kProbeSeconds = 2;  // ... unless they take longer than this
constexpr int kBarriersPerProbe = 32;

template <typename T>
std::vector<T> make_shard(const Workload& wl, std::uint64_t seed, int rank) {
  const std::uint64_t s = derive_seed(seed, static_cast<std::uint64_t>(rank));
  if constexpr (std::is_same_v<T, std::uint64_t>) {
    return workloads::uniform_u64(wl.per_rank, s, kUniverse);
  } else {
    const auto keys = workloads::zipf_keys(wl.per_rank, kZipfAlpha, s);
    std::vector<Tag> out(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      out[i] = Tag{keys[i], static_cast<std::uint32_t>(rank),
                   static_cast<std::uint32_t>(i)};
    }
    return out;
  }
}

sim::ClusterConfig cluster_config(const Workload& wl, int workers,
                                  bool library_trace) {
  sim::ClusterConfig cc;
  cc.num_ranks = wl.ranks;
  cc.cores_per_node = wl.cores_per_node;
  cc.network = sim::NetworkModel::none();
  cc.enable_trace = library_trace;
  cc.sched_workers = workers;
  return cc;
}

Config sort_config(const Workload& wl) {
  Config cfg;  // library defaults, except the workload's mode
  cfg.stable = wl.stable;
  return cfg;
}

// ---------------------------------------------------------------------------
// Clocks and statistics

const WallTimer kClock;  // shared time base of every rank's timestamps

double now_s() { return kClock.seconds(); }

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

void print_samples(const char* what, const std::vector<double>& v,
                   const char* unit) {
  std::printf("%s: n=%zu median=%.6g q1=%.6g q3=%.6g min=%.6g max=%.6g %s\n",
              what, v.size(), median(v), quantile(v, 0.25), quantile(v, 0.75),
              quantile(v, 0.0), quantile(v, 1.0), unit);
}

// ---------------------------------------------------------------------------
// Output verification

/// Collective: records with equal keys keep their origin order (rank-major,
/// then index), within each rank and across every rank boundary.
bool is_globally_stable(sim::Comm& comm, std::span<const Tag> out) {
  bool ok = true;
  for (std::size_t i = 1; i < out.size(); ++i) {
    if (out[i - 1].key == out[i].key &&
        !workloads::tagged_before(out[i - 1], out[i])) {
      ok = false;
    }
  }
  struct Ends {
    Tag first;
    Tag last;
    std::uint8_t has;
  };
  Ends mine{};
  mine.has = out.empty() ? 0 : 1;
  if (!out.empty()) {
    mine.first = out.front();
    mine.last = out.back();
  }
  std::optional<Tag> prev;
  for (const Ends& e : comm.allgather<Ends>(mine)) {
    if (e.has == 0u) continue;
    if (prev && prev->key == e.first.key &&
        !workloads::tagged_before(*prev, e.first)) {
      ok = false;
    }
    prev = e.last;
  }
  const int votes =
      comm.allreduce<int>(ok ? 1 : 0, [](int a, int b) { return a + b; });
  return votes == comm.size();
}

/// Collective, same verdict on every rank: global order, permutation of the
/// input (multiset checksum) and, for Tag records, stability.
template <typename T, typename KeyFn>
bool verify(sim::Comm& comm, std::span<const T> out,
            const MultisetChecksum& input_sum, KeyFn kf) {
  bool ok = is_globally_sorted<T, KeyFn>(comm, out, kf);
  ok = global_checksum<T>(comm, out) == input_sum && ok;
  if constexpr (std::is_same_v<T, Tag>) {
    ok = is_globally_stable(comm, out) && ok;
  }
  return ok;
}

/// Collective: every rank's `a` is byte-equal to its `b`.
template <typename T>
bool all_equal(sim::Comm& comm, const std::vector<T>& a,
               const std::vector<T>& b) {
  const bool eq = a.size() == b.size() &&
                  (a.empty() ||
                   std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
  return comm.allreduce<int>(eq ? 1 : 0, [](int x, int y) { return x + y; }) ==
         comm.size();
}

// ---------------------------------------------------------------------------
// Timed windows and spans

/// A block every rank runs between barriers. Rank 0 stamps the start just
/// before the opening barrier (so no rank has started yet) and the end as
/// the slowest rank's finish; CPU and kernel counters are process-wide over
/// the same window. Meaningful on rank 0 only. `ends` holds one slot per
/// rank, shared by all ranks; a window nested inside another needs its own.
struct Window {
  double wall_s = 0;
  double cpu_s = 0;
  KernelSnapshot kernel;
};

template <typename F>
Window timed(sim::Comm& comm, std::vector<double>& ends, F&& body) {
  comm.barrier();
  double t0 = 0, cpu0 = 0;
  KernelSnapshot k0;
  if (comm.rank() == 0) {
    k0 = snapshot_kernel_counters();
    cpu0 = process_cpu_s();
    t0 = now_s();
  }
  comm.barrier();
  body();
  ends[static_cast<std::size_t>(comm.rank())] = now_s();
  comm.barrier();
  Window w;
  if (comm.rank() == 0) {
    w.wall_s = *std::max_element(ends.begin(), ends.end()) - t0;
    w.cpu_s = process_cpu_s() - cpu0;
    w.kernel = snapshot_kernel_counters().delta_since(k0);
  }
  return w;
}

/// One traced stage of one rank: its wall span, fiber CPU, the deltas of the
/// rank's own CommStats, and the kernel counters' delta. The counters are
/// process-wide, so that delta also holds the work of any rank that ran
/// while this span was open; the stage windows carry the exact per-stage
/// kernel counts.
struct Span {
  const char* name = "";
  int rank = 0;
  int sort_id = 0;
  int parent = -1;  ///< index of the enclosing span in the rank's log
  double start_s = 0;
  double end_s = 0;
  double cpu_s = 0;
  std::uint64_t p2p_messages = 0;
  std::uint64_t p2p_bytes = 0;
  std::uint64_t coll_messages = 0;
  std::uint64_t coll_bytes = 0;
  std::uint64_t alltoallv_bytes = 0;
  KernelSnapshot kernel;

  double wall_s() const { return end_s - start_s; }
  std::uint64_t bytes() const { return p2p_bytes + coll_bytes; }
};

/// Records spans into one rank's in-memory log.
class Tracer {
 public:
  Tracer(std::vector<Span>& log, sim::Comm& comm, int sort_id)
      : log_(log), comm_(comm), sort_id_(sort_id) {}

  int open(const char* name, int parent) {
    Span s;
    s.name = name;
    s.rank = comm_.rank();
    s.sort_id = sort_id_;
    s.parent = parent;
    load(s);
    s.kernel = snapshot_kernel_counters();
    s.cpu_s = thread_cpu_seconds();
    s.start_s = now_s();
    log_.push_back(s);
    return static_cast<int>(log_.size() - 1);
  }

  void close(int idx) {
    const double end = now_s();
    const double cpu = thread_cpu_seconds();
    Span now;
    load(now);
    Span& s = log_[static_cast<std::size_t>(idx)];
    s.end_s = end;
    s.cpu_s = cpu - s.cpu_s;
    s.p2p_messages = now.p2p_messages - s.p2p_messages;
    s.p2p_bytes = now.p2p_bytes - s.p2p_bytes;
    s.coll_messages = now.coll_messages - s.coll_messages;
    s.coll_bytes = now.coll_bytes - s.coll_bytes;
    s.alltoallv_bytes = now.alltoallv_bytes - s.alltoallv_bytes;
    s.kernel = snapshot_kernel_counters().delta_since(s.kernel);
  }

 private:
  void load(Span& s) const {
    const sim::CommStats& st = comm_.stats();
    s.p2p_messages = st.p2p_messages;
    s.p2p_bytes = st.p2p_bytes;
    s.coll_messages = st.collective_messages;
    s.coll_bytes = st.collective_bytes_out;
    s.alltoallv_bytes = st.alg(sim::CollAlg::kAlltoallvPairwise).bytes_out;
  }

  std::vector<Span>& log_;
  sim::Comm& comm_;
  int sort_id_;
};

/// Rank 0's windows of one replayed sort's stages, in stage order.
using StageWindows = std::vector<std::pair<const char*, Window>>;

/// sds_sort's stages, called through their public functions in the
/// driver's order (core/driver.hpp) on the pipeline the benchmark's Config
/// selects: no node merging, sampled pivots, in-memory exchange. Each stage
/// is a span on every rank inside a timed window between barriers, so its
/// wall, process CPU and kernel counters are its own (`ends` is the windows'
/// shared per-rank scratch). `data` is left holding the locally sorted
/// shard.
template <typename T, typename KeyFn>
std::vector<T> replay_sort(sim::Comm& comm, std::vector<T>& data,
                           const Config& cfg, KeyFn kf, Tracer& tr,
                           std::vector<double>& ends, StageWindows& windows,
                           ExchangePlan& plan) {
  using K = KeyType<KeyFn, T>;
  if (cfg.tau_m_bytes != 0 || cfg.mem_limit_records != 0 ||
      cfg.pivot_selection == PivotSelection::kHistogram ||
      cfg.pivot_selection == PivotSelection::kHistogramEps ||
      comm.size() < 2) {
    throw std::logic_error("replay_sort: configuration outside the replay");
  }
  const int p = comm.size();
  const int c = cfg.threads > 0 ? cfg.threads : comm.cores_per_node();
  const int root = tr.open("sort", -1);
  auto stage = [&](const char* name, auto&& body) {
    const Window w = timed(comm, ends, [&] {
      const int idx = tr.open(name, root);
      body();
      tr.close(idx);
    });
    if (comm.rank() == 0) windows.emplace_back(name, w);
  };

  stage("local_sort", [&] {
    LocalSortConfig lcfg;
    lcfg.threads = c;
    lcfg.stable = cfg.stable;
    lcfg.algo = cfg.local_algo;
    local_sort<T, KeyFn>(data, lcfg, kf);
  });

  LocalSamples<K> samples;
  std::vector<K> pivots;
  stage("pivot", [&] {
    samples = sample_local_pivots<T, KeyFn>(
        data, static_cast<std::size_t>(p - 1), kf);
    struct SizeAgg {
      std::uint64_t max;
      std::uint64_t sum;
    };
    const SizeAgg agg = comm.allreduce<SizeAgg>(
        SizeAgg{data.size(), data.size()},
        [](const SizeAgg& a, const SizeAgg& b) {
          return SizeAgg{a.max > b.max ? a.max : b.max, a.sum + b.sum};
        });
    const bool unbalanced =
        agg.max * static_cast<std::uint64_t>(p) > 2 * agg.sum + 64;
    pivots = cfg.pivot_selection == PivotSelection::kAuto && unbalanced
                 ? select_global_pivots_weighted<K>(comm, samples.keys,
                                                    data.size())
                 : select_global_pivots<K>(comm, samples.keys,
                                           cfg.pivot_selection);
  });

  std::vector<std::size_t> bounds;
  stage("partition", [&] {
    bounds = sdss_partition<T, KeyFn>(comm, data, samples, pivots, cfg, kf);
  });
  stage("plan", [&] {
    plan = plan_exchange(comm, bounds, cfg.mem_limit_records,
                         cfg.memory_policy);
  });

  std::vector<T> out;
  if (!cfg.stable && static_cast<std::size_t>(p) < cfg.tau_o) {
    stage("exchange", [&] {
      out = overlap_exchange_merge<T, KeyFn>(comm, data, plan, kf);
    });
  } else {
    std::vector<T> recv;
    stage("exchange", [&] { recv = sync_exchange<T>(comm, data, plan); });
    stage("ordering", [&] {
      out = static_cast<std::size_t>(p) < cfg.tau_s
                ? merge_all<T, KeyFn>(std::move(recv), plan.rcounts,
                                      plan.rdispls, cfg.stable, c, kf)
                : resort_all<T, KeyFn>(std::move(recv), cfg.stable, c,
                                       cfg.run_merge_threshold, kf);
    });
  }
  tr.close(root);
  return out;
}

/// Counts of one replayed sort that must repeat exactly for a fixed seed.
/// Wire counts sum the stage spans, so the fences between stages are left
/// out; kernel counts sum the stage windows.
using Counts = std::map<std::string, double>;

Counts sort_counts(const std::vector<std::vector<Span>>& logs, int sort_id,
                   const StageWindows& windows,
                   const std::vector<std::size_t>& out_records,
                   double total_records) {
  double p2p_msgs = 0, p2p_bytes = 0, coll_msgs = 0, coll_bytes = 0;
  double a2av = 0, pivot = 0;
  for (const auto& log : logs) {
    for (const Span& s : log) {
      if (s.sort_id != sort_id || s.parent == -1) continue;
      p2p_msgs += static_cast<double>(s.p2p_messages);
      p2p_bytes += static_cast<double>(s.p2p_bytes);
      coll_msgs += static_cast<double>(s.coll_messages);
      coll_bytes += static_cast<double>(s.coll_bytes);
      a2av += static_cast<double>(s.alltoallv_bytes);
      if (std::strcmp(s.name, "pivot") == 0) {
        pivot += static_cast<double>(s.bytes());
      }
    }
  }
  KernelSnapshot k;
  for (const auto& [name, w] : windows) {
    k.bytes_moved += w.kernel.bytes_moved;
    k.scratch_bytes += w.kernel.scratch_bytes;
    k.heap_allocs += w.kernel.heap_allocs;
    k.merge_gallop_bytes += w.kernel.merge_gallop_bytes;
  }
  Counts c;
  c["rdfa"] = rdfa(out_records);
  c["wire_bytes_per_rec"] = (p2p_bytes + coll_bytes) / total_records;
  c["sim.p2p_messages"] = p2p_msgs;
  c["sim.p2p_bytes"] = p2p_bytes;
  c["sim.coll_messages"] = coll_msgs;
  c["sim.coll_bytes"] = coll_bytes;
  c["sim.alltoallv_bytes"] = a2av;
  c["sim.pivot_bytes"] = pivot;
  c["sortcore.bytes_moved"] = static_cast<double>(k.bytes_moved);
  c["sortcore.scratch_bytes"] = static_cast<double>(k.scratch_bytes);
  c["sortcore.heap_allocs"] = static_cast<double>(k.heap_allocs);
  c["sortcore.merge_gallop_bytes"] = static_cast<double>(k.merge_gallop_bytes);
  return c;
}

/// The overlapped exchange merges chunks in message-arrival order, so the
/// merge's byte counts repeat only when the rank interleaving does.
bool follows_arrival_order(const std::string& key) {
  return key == "sortcore.bytes_moved" || key == "sortcore.merge_gallop_bytes";
}

/// Prints every key whose value differs. Returns false when one differs
/// that must not: any key when `exact`, else any but the arrival-order ones.
bool same_counts(const char* what, const Counts& a, const Counts& b,
                 bool exact) {
  bool same = a.size() == b.size();
  for (const auto& [k, v] : a) {
    const auto it = b.find(k);
    const double w = it == b.end() ? 0.0 : it->second;
    if (it != b.end() && w == v) continue;
    const bool allowed = !exact && it != b.end() && follows_arrival_order(k);
    std::printf("determinism: %s: %s differs: %.17g vs %.17g%s\n", what,
                k.c_str(), v, w,
                allowed ? " (overlapped merge follows message arrival)" : "");
    if (!allowed) same = false;
  }
  return same;
}

void write_spans(const std::string& path,
                 const std::vector<std::vector<Span>>& logs) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "sds_bench: cannot write spans to %s\n",
                 path.c_str());
    return;
  }
  std::size_t n = 0;
  char line[512];
  for (const auto& log : logs) {
    for (const Span& s : log) {
      std::snprintf(
          line, sizeof line,
          "{\"name\":\"%s\",\"rank\":%d,\"sort\":%d,\"parent\":%d,"
          "\"start_s\":%.9f,\"end_s\":%.9f,\"cpu_s\":%.9f,"
          "\"p2p_messages\":%llu,\"p2p_bytes\":%llu,\"coll_messages\":%llu,"
          "\"coll_bytes\":%llu,\"bytes_moved\":%llu,\"heap_allocs\":%llu}\n",
          s.name, s.rank, s.sort_id, s.parent, s.start_s, s.end_s, s.cpu_s,
          static_cast<unsigned long long>(s.p2p_messages),
          static_cast<unsigned long long>(s.p2p_bytes),
          static_cast<unsigned long long>(s.coll_messages),
          static_cast<unsigned long long>(s.coll_bytes),
          static_cast<unsigned long long>(s.kernel.bytes_moved),
          static_cast<unsigned long long>(s.kernel.heap_allocs));
      out << line;
      ++n;
    }
  }
  std::printf("spans: %zu written to %s\n", n, path.c_str());
}

// ---------------------------------------------------------------------------
// Result bookkeeping

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) {  // keep the JSON valid; fail the run
      correct = false;
      value = 0;
    }
    std::printf("%-28s = %.6g %s\n", name.c_str(), value, unit.c_str());
    metrics.push_back({std::move(name), value, std::move(unit)});
  }

  void print_json() const {
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
  }
};

bool run_ok(const sim::RunResult& r, const char* what) {
  if (!r.ok) {
    std::printf("%s: cluster run failed (%s): %s\n", what,
                sim::failure_class_name(r.failure), r.error.c_str());
  }
  return r.ok;
}

// ---------------------------------------------------------------------------
// Verifier self-check: corrupt a correct tiny output three ways; each must
// be reported as a failure, so a zero failure count cannot pass vacuously.

enum class Corruption { kBoundarySwap, kDrop, kEqualKeySwap };

/// "detected" when the verifier passes the clean output and fails the
/// corrupted one.
template <typename T, typename KeyFn>
const char* corruption_verdict(Corruption kind, std::uint64_t seed) {
  const Workload tiny{"selfcheck", 4, 1000, 1, 1,
                      std::is_same_v<T, Tag>};
  sim::Cluster cluster(cluster_config(tiny, 1, false));
  std::vector<std::vector<T>*> outs(static_cast<std::size_t>(tiny.ranks));
  bool clean = false, applied = false, detected = false;
  const auto res = cluster.run_collect([&](sim::Comm& comm) {
    const KeyFn kf{};
    auto input = make_shard<T>(tiny, seed, comm.rank());
    const auto in_sum = global_checksum<T>(comm, input);
    auto out = sds_sort<T, KeyFn>(comm, std::move(input), sort_config(tiny),
                                  kf);
    const bool ok = verify<T, KeyFn>(comm, out, in_sum, kf);
    outs[static_cast<std::size_t>(comm.rank())] = &out;
    comm.barrier();
    if (comm.rank() == 0) {
      clean = ok;
      // Every other rank is parked in the next barrier while rank 0 edits
      // their outputs.
      for (std::size_t r = 0; r < outs.size() && !applied; ++r) {
        std::vector<T>& v = *outs[r];
        if (kind == Corruption::kDrop && !v.empty()) {
          v.pop_back();
          applied = true;
        } else if (kind == Corruption::kBoundarySwap && !v.empty()) {
          for (std::size_t q = r + 1; q < outs.size() && !applied; ++q) {
            if (outs[q]->empty()) continue;
            std::swap(v.back(), outs[q]->front());
            applied = true;
          }
        } else if (kind == Corruption::kEqualKeySwap) {
          for (std::size_t i = 1; i < v.size() && !applied; ++i) {
            if (kf(v[i - 1]) == kf(v[i])) {
              std::swap(v[i - 1], v[i]);
              applied = true;
            }
          }
        }
      }
    }
    comm.barrier();
    const bool still_ok = verify<T, KeyFn>(comm, out, in_sum, kf);
    if (comm.rank() == 0) detected = !still_ok;
  });
  if (!run_ok(res, "selfcheck") || !clean) return "clean-output-failed";
  if (!applied) return "not-applied";
  return detected ? "detected" : "missed";
}

bool verifier_selfcheck(std::uint64_t seed) {
  const char* swap = corruption_verdict<std::uint64_t, IdentityKey>(
      Corruption::kBoundarySwap, seed);
  const char* drop =
      corruption_verdict<std::uint64_t, IdentityKey>(Corruption::kDrop, seed);
  const char* equal =
      corruption_verdict<Tag, TagKey>(Corruption::kEqualKeySwap, seed);
  std::printf("selfcheck: boundary-swap=%s drop=%s equal-key-swap=%s\n", swap,
              drop, equal);
  auto ok = [](const char* v) { return std::strcmp(v, "detected") == 0; };
  return ok(swap) && ok(drop) && ok(equal);
}

// ---------------------------------------------------------------------------
// Set-up: cluster construction, fiber start and input generation.

template <typename T>
double time_setup(const Workload& wl, std::uint64_t seed) {
  const double t0 = now_s();
  sim::Cluster cluster(cluster_config(wl, wl.workers, false));
  double ready = 0;
  const auto res = cluster.run_collect([&](sim::Comm& comm) {
    const auto input = make_shard<T>(wl, seed, comm.rank());
    comm.barrier();
    if (comm.rank() == 0) ready = now_s() - t0;
  });
  if (!run_ok(res, "setup")) throw std::runtime_error("setup run failed");
  return ready;
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics

template <typename T, typename KeyFn>
void run_end_to_end(const Workload& wl, std::uint64_t seed, double seconds,
                    Result& result) {
  const auto n_total = static_cast<double>(wl.ranks) *
                       static_cast<double>(wl.per_rank);
  const Config cfg = sort_config(wl);
  const auto P = static_cast<std::size_t>(wl.ranks);

  std::vector<double> setup;
  for (int i = 0; i < kSetupReps; ++i) setup.push_back(time_setup<T>(wl, seed));

  std::vector<double> ends(P), wall, cpu;
  std::vector<std::uint64_t> bytes(P);
  std::vector<std::size_t> out_records(P);
  std::vector<double> rdfas, wire;
  bool stop = false;
  double loop_start = 0;
  long attempted = 0, failed = 0;

  const double t_construct = now_s();
  sim::Cluster cluster(cluster_config(wl, wl.workers, false));
  const auto res = cluster.run_collect([&](sim::Comm& comm) {
    const KeyFn kf{};
    const auto r = static_cast<std::size_t>(comm.rank());
    const auto input = make_shard<T>(wl, seed, comm.rank());
    comm.barrier();
    if (r == 0) setup.push_back(now_s() - t_construct);
    const auto in_sum = global_checksum<T>(comm, std::span<const T>(input));
    for (int it = 0;; ++it) {
      std::vector<T> work = input;
      comm.barrier();
      if (stop) break;  // written by rank 0 before it entered the barrier
      std::vector<T> out;
      const Window w = timed(comm, ends, [&] {
        const sim::CommStats before = comm.stats();
        out = sds_sort<T, KeyFn>(comm, std::move(work), cfg, kf);
        bytes[r] = comm.stats().total_bytes() - before.total_bytes();
      });
      out_records[r] = out.size();
      const bool ok = verify<T, KeyFn>(comm, out, in_sum, kf);
      if (r != 0) continue;
      ++attempted;
      if (!ok) ++failed;
      if (it == kWarmupSorts) loop_start = now_s() - w.wall_s;
      if (it >= kWarmupSorts) {
        wall.push_back(w.wall_s);
        cpu.push_back(w.cpu_s);
        std::uint64_t total = 0;
        for (const auto b : bytes) total += b;
        wire.push_back(static_cast<double>(total) / n_total);
        rdfas.push_back(rdfa(out_records));
        stop = now_s() - loop_start >= seconds;
      }
    }
  });
  if (!run_ok(res, "sorts")) {
    ++attempted;
    ++failed;
  }
  result.attempted += attempted;
  result.failed += failed;
  if (wall.empty()) {
    result.correct = false;
    return;
  }
  std::printf("sorts: %d warm-up + %zu timed, %ld failed\n", kWarmupSorts,
              wall.size(), failed);
  print_samples("sort wall", wall, "s");
  print_samples("sort process cpu", cpu, "s");
  print_samples("setup", setup, "s");
  if (std::adjacent_find(rdfas.begin(), rdfas.end(), std::not_equal_to<>()) !=
          rdfas.end() ||
      std::adjacent_find(wire.begin(), wire.end(), std::not_equal_to<>()) !=
          wire.end()) {
    std::printf("determinism: rdfa or wire bytes differ between sorts\n");
    result.correct = false;
  }

  result.add("throughput_mrec_s", n_total / median(wall) / 1e6, "Mrec/s");
  result.add("process_cpu_s", median(cpu), "s");
  result.add("rdfa", rdfas.back(), "ratio");
  result.add("wire_bytes_per_rec", wire.back(), "B/rec");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  result.add("setup_s", median(setup), "s");
  result.add("verified_frac",
             static_cast<double>(attempted - failed) /
                 static_cast<double>(std::max(attempted, 1L)),
             "frac");
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics

/// One plain sds_sort and the traced replay of the same input.
struct LayerSample {
  double sort_s = 0;    ///< plain sds_sort, between barriers
  double replay_s = 0;  ///< the replay, fences between stages included
  StageWindows stages;
  double fiber_cpu_s = 0;        ///< stage spans' fiber CPU, all ranks
  double crit_cpu_s = 0;         ///< max over ranks of the same
  double exchange_offcpu_s = 0;  ///< max over ranks of exchange wall - CPU

  /// The named stage's window; all zero when the stage did not run.
  Window stage(const char* name) const {
    for (const auto& [n, w] : stages) {
      if (std::strcmp(n, name) == 0) return w;
    }
    return {};
  }
};

void summarize_spans(const std::vector<std::vector<Span>>& logs, int sort_id,
                     LayerSample& s) {
  for (const auto& log : logs) {
    double rank_cpu = 0;
    for (const Span& sp : log) {
      if (sp.sort_id != sort_id || sp.parent == -1) continue;
      rank_cpu += sp.cpu_s;
      if (std::strcmp(sp.name, "exchange") == 0) {
        s.exchange_offcpu_s =
            std::max(s.exchange_offcpu_s, sp.wall_s() - sp.cpu_s);
      }
    }
    s.fiber_cpu_s += rank_cpu;
    s.crit_cpu_s = std::max(s.crit_cpu_s, rank_cpu);
  }
}

/// One cluster run that replays a single sort and returns its counts (the
/// determinism check runs it at 1 and at 2 scheduler workers).
template <typename T, typename KeyFn>
std::optional<Counts> replay_counts(const Workload& wl, std::uint64_t seed,
                                    int workers) {
  const auto P = static_cast<std::size_t>(wl.ranks);
  std::vector<std::vector<Span>> logs(P);
  std::vector<std::size_t> out_records(P);
  std::vector<double> ends(P);
  StageWindows windows;
  sim::Cluster cluster(cluster_config(wl, workers, false));
  const auto res = cluster.run_collect([&](sim::Comm& comm) {
    auto data = make_shard<T>(wl, seed, comm.rank());
    Tracer tr(logs[static_cast<std::size_t>(comm.rank())], comm, 0);
    ExchangePlan plan;
    const auto out = replay_sort<T, KeyFn>(comm, data, sort_config(wl),
                                           KeyFn{}, tr, ends, windows, plan);
    out_records[static_cast<std::size_t>(comm.rank())] = out.size();
  });
  if (!run_ok(res, "determinism")) return std::nullopt;
  return sort_counts(logs, 0, windows, out_records,
                     static_cast<double>(P * wl.per_rank));
}

/// Determinism: the counts repeat across the replays of one run, and on a
/// small kernel-bound cluster across two runs at 2 and at 1 workers.
bool counts_repeat(const std::vector<Counts>& counts, bool exact,
                   std::uint64_t seed) {
  bool ok = true;
  for (std::size_t i = 1; i < counts.size(); ++i) {
    ok = same_counts("first vs later replay", counts[0], counts[i], exact) &&
         ok;
  }
  const Workload small{"kernel-bound-small", 16, 20000, 2, 1, false};
  std::vector<Counts> sc;
  for (const int w : {2, 2, 1, 1}) {
    if (auto c = replay_counts<std::uint64_t, IdentityKey>(small, seed, w)) {
      sc.push_back(std::move(*c));
    }
  }
  if (sc.size() != 4) return false;
  const bool twice2 =
      same_counts("small, 2 workers twice", sc[0], sc[1], false);
  const bool twice1 = same_counts("small, 1 worker twice", sc[2], sc[3], true);
  const bool across =
      same_counts("small, 2 vs 1 workers", sc[0], sc[2], false);
  return ok && twice2 && twice1 && across;
}

/// Runtime and kernel probes, each timed from outside the layer it
/// measures. Rank 0 fills the vectors; `done` is read by every rank.
struct Probes {
  std::vector<double> barrier_us, alltoallv_s, merge_cpu_s, wait_any_ns;
  bool done = false;
};

/// Collective: up to kProbeReps rounds of every probe, fewer when they take
/// longer than kProbeSeconds. `sorted` and `plan` are a replay's locally
/// sorted shard and exchange plan.
template <typename T, typename KeyFn>
void run_probes(sim::Comm& comm, std::vector<double>& ends,
                const std::vector<T>& sorted, const ExchangePlan& plan,
                const Config& cfg, Probes& out) {
  const auto P = static_cast<std::size_t>(comm.size());
  const auto r = static_cast<std::size_t>(comm.rank());
  const int c = cfg.threads > 0 ? cfg.threads : comm.cores_per_node();
  const double start = now_s();
  for (int rep = 0;; ++rep) {
    comm.barrier();
    if (out.done) break;  // written by rank 0 before it entered the barrier
    const Window wb = timed(comm, ends, [&] {
      for (int i = 0; i < kBarriersPerProbe; ++i) comm.barrier();
    });
    // One blocking alltoallv with the replay's counts, then the merge kernel
    // on the chunks it delivered.
    std::vector<T> recv(plan.recv_total);
    const Window wa = timed(comm, ends, [&] {
      comm.alltoallv<T>(sorted, plan.scounts, plan.sdispls, recv,
                        plan.rcounts, plan.rdispls);
    });
    const Window wm = timed(comm, ends, [&] {
      const auto merged = merge_all<T, KeyFn>(
          std::move(recv), plan.rcounts, plan.rdispls, cfg.stable, c, KeyFn{});
    });
    // Fan-in P: one small message from every peer, drained with wait_any.
    std::vector<std::uint64_t> inbox(P);
    const std::uint64_t token = r;
    const Window ww = timed(comm, ends, [&] {
      std::vector<sim::Request> reqs;
      reqs.reserve(P);
      for (std::size_t s = 0; s < P; ++s) {
        if (s == r) continue;
        reqs.push_back(comm.irecv<std::uint64_t>(
            std::span<std::uint64_t>(&inbox[s], 1), static_cast<int>(s),
            /*tag=*/77));
      }
      for (std::size_t d = 0; d < P; ++d) {
        if (d == r) continue;
        comm.isend<std::uint64_t>(std::span<const std::uint64_t>(&token, 1),
                                  static_cast<int>(d), /*tag=*/77);
      }
      std::vector<char> done(reqs.size(), 0);
      for (std::size_t left = reqs.size(); left > 0; --left) {
        const int idx = sim::Request::wait_any(reqs, done);
        if (idx < 0) break;
        done[static_cast<std::size_t>(idx)] = 1;
      }
    });
    if (r == 0) {
      out.barrier_us.push_back(wb.wall_s / kBarriersPerProbe * 1e6);
      out.alltoallv_s.push_back(wa.wall_s);
      out.merge_cpu_s.push_back(wm.cpu_s);
      out.wait_any_ns.push_back(ww.wall_s * 1e9 /
                                static_cast<double>(P * (P - 1)));
      out.done =
          rep + 1 >= kProbeReps || now_s() - start >= kProbeSeconds;
    }
  }
}

/// par: rank 0's shard sorted on the host thread at c=1 and at c=4; the
/// ratio of the median times.
template <typename T, typename KeyFn>
double local_sort_speedup(const Workload& wl, std::uint64_t seed,
                          const Config& cfg) {
  const auto shard = make_shard<T>(wl, seed, 0);
  std::vector<double> t1, t4;
  const double start = now_s();
  while (t1.size() < 3 || (now_s() - start < 0.5 && t1.size() < 200)) {
    for (const int c : {1, 4}) {
      LocalSortConfig lcfg;
      lcfg.threads = c;
      lcfg.stable = cfg.stable;
      lcfg.algo = cfg.local_algo;
      std::vector<T> v = shard;
      const double t0 = now_s();
      local_sort<T, KeyFn>(v, lcfg, KeyFn{});
      (c == 1 ? t1 : t4).push_back(now_s() - t0);
    }
  }
  return median(t1) / median(t4);
}

/// ref: median time of one thread sorting all N records (std::sort, or
/// std::stable_sort by key for Tag records).
template <typename T, typename KeyFn>
double seq_sort_seconds(const Workload& wl, std::uint64_t seed) {
  std::vector<T> all;
  all.reserve(static_cast<std::size_t>(wl.ranks) * wl.per_rank);
  for (int q = 0; q < wl.ranks; ++q) {
    const auto s = make_shard<T>(wl, seed, q);
    all.insert(all.end(), s.begin(), s.end());
  }
  std::vector<double> seq;
  const double start = now_s();
  while (seq.empty() || (seq.size() < 3 && now_s() - start < 2.0)) {
    std::vector<T> v = all;
    const double t0 = now_s();
    if constexpr (std::is_same_v<T, Tag>) {
      std::stable_sort(v.begin(), v.end(), KeyLess<KeyFn>{});
    } else {
      std::sort(v.begin(), v.end());
    }
    seq.push_back(now_s() - t0);
  }
  return median(seq);
}

template <typename T, typename KeyFn>
void run_layers(const Workload& wl, std::uint64_t seed, double seconds,
                const std::string& spans_path, Result& result) {
  const auto P = static_cast<std::size_t>(wl.ranks);
  const double n_total = static_cast<double>(P * wl.per_rank);
  const Config cfg = sort_config(wl);

  // obs: one verified sds_sort with the library's own trace recorder on.
  std::vector<double> body_end(P);
  double collect_s = 0;
  std::size_t trace_events = 0;
  {
    bool ok = false;
    sim::Cluster cluster(cluster_config(wl, wl.workers, true));
    const auto res = cluster.run_collect([&](sim::Comm& comm) {
      auto input = make_shard<T>(wl, seed, comm.rank());
      const auto in_sum = global_checksum<T>(comm, std::span<const T>(input));
      const auto out =
          sds_sort<T, KeyFn>(comm, std::move(input), cfg, KeyFn{});
      const bool verified = verify<T, KeyFn>(comm, out, in_sum, KeyFn{});
      if (comm.rank() == 0) ok = verified;
      body_end[static_cast<std::size_t>(comm.rank())] = now_s();
    });
    collect_s = now_s() - *std::max_element(body_end.begin(), body_end.end());
    trace_events = res.trace.total_events();
    ++result.attempted;
    if (!run_ok(res, "obs") || !ok) ++result.failed;
  }

  // Plain sorts paired with traced replays, then runtime and kernel probes,
  // in one cluster run.
  std::vector<std::vector<Span>> logs(P);
  std::vector<double> ends(P), stage_ends(P);  // for the replay's own windows
  std::vector<std::size_t> out_records(P);
  std::vector<LayerSample> samples;
  std::vector<Counts> counts;
  Probes probes;
  bool stop = false, replay_equal = true;
  double loop_start = 0;
  long attempted = 0, failed = 0;
  {
    sim::Cluster cluster(cluster_config(wl, wl.workers, false));
    const auto res = cluster.run_collect([&](sim::Comm& comm) {
      const KeyFn kf{};
      const auto r = static_cast<std::size_t>(comm.rank());
      const auto input = make_shard<T>(wl, seed, comm.rank());
      const auto in_sum = global_checksum<T>(comm, std::span<const T>(input));
      {
        auto out = sds_sort<T, KeyFn>(comm, std::vector<T>(input), cfg, kf);
        const bool ok = verify<T, KeyFn>(comm, out, in_sum, kf);
        if (r == 0) {
          ++attempted;
          if (!ok) ++failed;
          loop_start = now_s();
        }
      }
      std::vector<T> sorted;  // the last replay's locally sorted shard
      ExchangePlan plan;      // ... and its exchange plan
      for (int it = 0;; ++it) {
        std::vector<T> work = input;
        comm.barrier();
        if (stop) break;  // written by rank 0 before it entered the barrier
        std::vector<T> ref;
        const Window ws = timed(comm, ends, [&] {
          ref = sds_sort<T, KeyFn>(comm, std::move(work), cfg, kf);
        });
        const bool ok = verify<T, KeyFn>(comm, ref, in_sum, kf);
        sorted = input;
        Tracer tr(logs[r], comm, it);
        LayerSample s;
        std::vector<T> rep;
        const Window wr = timed(comm, ends, [&] {
          rep = replay_sort<T, KeyFn>(comm, sorted, cfg, kf, tr,
                                      stage_ends, s.stages, plan);
        });
        out_records[r] = rep.size();
        const bool equal = all_equal(comm, rep, ref);
        if (r != 0) continue;
        attempted += 2;
        if (!ok) ++failed;
        if (!equal) {
          ++failed;
          replay_equal = false;
        }
        s.sort_s = ws.wall_s;
        s.replay_s = wr.wall_s;
        summarize_spans(logs, it, s);
        counts.push_back(sort_counts(logs, it, s.stages, out_records, n_total));
        samples.push_back(std::move(s));
        stop = now_s() - loop_start >= seconds;
      }

      run_probes<T, KeyFn>(comm, ends, sorted, plan, cfg, probes);
    });
    if (!run_ok(res, "replay")) {
      ++attempted;
      ++failed;
    }
  }
  result.attempted += attempted;
  result.failed += failed;
  std::printf("replay: %zu traced sorts, output %s sds_sort's\n",
              samples.size(), replay_equal ? "byte-equal to" : "DIFFERS FROM");
  if (samples.empty()) {
    result.correct = false;
    return;
  }
  if (!spans_path.empty()) write_spans(spans_path, logs);

  const bool overlapped = !cfg.stable && P < cfg.tau_o;  // driver's choice
  const bool deterministic =
      counts_repeat(counts, !overlapped || wl.workers == 1, seed);
  std::printf("determinism: %s\n",
              deterministic ? "every required count repeats exactly"
                            : "a required count DIFFERS");
  if (!deterministic) result.correct = false;

  auto med = [&](auto field) {
    std::vector<double> v;
    for (const LayerSample& s : samples) v.push_back(field(s));
    return median(v);
  };
  auto wall = [&](const char* stage) {
    return med([&](const LayerSample& s) { return s.stage(stage).wall_s; });
  };
  auto cpu = [&](const char* stage) {
    return med([&](const LayerSample& s) { return s.stage(stage).cpu_s; });
  };
  const double sort_s = med([](const LayerSample& s) { return s.sort_s; });
  const double replay_s = med([](const LayerSample& s) { return s.replay_s; });
  std::printf("plain sort wall median %.6g s, traced replay wall median "
              "%.6g s, over %zu pairs\n",
              sort_s, replay_s, samples.size());
  const Counts& n = counts.front();

  result.add("sim.wait_any_ns", median(probes.wait_any_ns), "ns");
  result.add("sim.exchange_offcpu_s",
             med([](const LayerSample& s) { return s.exchange_offcpu_s; }),
             "s");
  result.add("sim.alltoallv_s", median(probes.alltoallv_s), "s");
  result.add("sim.barrier_us", median(probes.barrier_us), "us");
  for (const char* k : {"sim.p2p_messages", "sim.coll_messages"}) {
    result.add(k, n.at(k), "count");
  }
  for (const char* k : {"sim.p2p_bytes", "sim.coll_bytes",
                        "sim.alltoallv_bytes", "sim.pivot_bytes"}) {
    result.add(k, n.at(k), "B");
  }
  result.add("core.pivot_s", wall("pivot"), "s");
  result.add("core.pivot_cpu_s", cpu("pivot"), "s");
  result.add("core.partition_s", wall("partition"), "s");
  result.add("core.partition_cpu_s", cpu("partition"), "s");
  result.add("core.plan_s", wall("plan"), "s");
  result.add("core.exchange_s", wall("exchange"), "s");
  result.add("core.exchange_cpu_s", cpu("exchange"), "s");
  result.add("core.ordering_s", wall("ordering"), "s");
  result.add("core.crit_cpu_s",
             med([](const LayerSample& s) { return s.crit_cpu_s; }), "s");
  result.add("core.offcpu_frac", med([&](const LayerSample& s) {
               double stages_s = 0;
               for (const auto& [name, w] : s.stages) stages_s += w.wall_s;
               return 1.0 - s.fiber_cpu_s / (stages_s * wl.workers);
             }),
             "frac");
  result.add("sortcore.local_sort_s", wall("local_sort"), "s");
  result.add("sortcore.local_sort_cpu_s", cpu("local_sort"), "s");
  result.add("sortcore.merge_cpu_s", median(probes.merge_cpu_s), "s");
  result.add("sortcore.bytes_moved", n.at("sortcore.bytes_moved"), "B");
  result.add("sortcore.scratch_bytes", n.at("sortcore.scratch_bytes"), "B");
  result.add("sortcore.heap_allocs", n.at("sortcore.heap_allocs"), "count");
  result.add("sortcore.merge_gallop_bytes", n.at("sortcore.merge_gallop_bytes"),
             "B");
  result.add("par.local_sort_speedup",
             local_sort_speedup<T, KeyFn>(wl, seed, cfg), "x");
  result.add("obs.trace_events", static_cast<double>(trace_events), "count");
  result.add("obs.collect_s", collect_s, "s");
  const double seq_s = seq_sort_seconds<T, KeyFn>(wl, seed);
  result.add("ref.seq_sort_s", seq_s, "s");
  result.add("bench.trace_overhead_frac", replay_s / sort_s - 1.0, "frac");
  std::printf("reference: one-thread sort %.6g Mrec/s, sds_sort %.6g Mrec/s\n",
              n_total / seq_s / 1e6, n_total / sort_s / 1e6);
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: sds_bench --workload <kernel-bound|runtime-bound|"
               "skew-stable> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans <path>]\n");
  std::exit(2);
}

template <typename T, typename KeyFn>
void run(const Workload& wl, std::uint64_t seed, double seconds, bool trace,
         const std::string& spans_path, Result& result) {
  if (trace) {
    run_layers<T, KeyFn>(wl, seed, seconds, spans_path, result);
  } else {
    run_end_to_end<T, KeyFn>(wl, seed, seconds, result);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans_path;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(v);
    } else if (flag == "--trace") {
      trace = std::atoi(v);
    } else if (flag == "--spans") {
      spans_path = v;
    } else {
      usage();
    }
  }
  if (argc % 2 == 0) usage();
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) wl = &w;
  }
  if (wl == nullptr || seconds <= 0 || (trace != 0 && trace != 1)) usage();

  std::printf(
      "sds_bench: workload=%s P=%d n/rank=%zu N=%zu workers=%d c=%d mode=%s "
      "seed=%llu seconds=%g trace=%d\n",
      wl->name, wl->ranks, wl->per_rank,
      static_cast<std::size_t>(wl->ranks) * wl->per_rank, wl->workers,
      wl->cores_per_node, wl->stable ? "stable" : "fast",
      static_cast<unsigned long long>(seed), seconds, trace);

  Result result;
  if (!verifier_selfcheck(seed)) result.correct = false;
  try {
    if (wl->stable) {
      run<Tag, TagKey>(*wl, seed, seconds, trace != 0, spans_path, result);
    } else {
      run<std::uint64_t, IdentityKey>(*wl, seed, seconds, trace != 0,
                                      spans_path, result);
    }
  } catch (const std::exception& e) {
    std::printf("sds_bench: %s\n", e.what());
    result.correct = false;
  }
  if (result.attempted == 0) {
    result.correct = false;
    result.attempted = 1;
    result.failed = 1;
  }
  if (result.failed > 0) result.correct = false;
  std::fflush(stdout);
  result.print_json();
  return result.correct ? 0 : 1;
}
