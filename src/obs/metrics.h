#ifndef AVDB_OBS_METRICS_H_
#define AVDB_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/mutex.h"

namespace avdb {
namespace obs {

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, control characters). Shared by the metrics and trace
/// exporters so both emit byte-stable, parseable JSON.
std::string JsonEscape(std::string_view s);

/// True when `name` follows the repo-wide instrument convention
/// `avdb_<layer>_<metric>` — lowercase, digits and underscores only, at
/// least three segments. avdb-lint additionally checks that `<layer>`
/// matches the include-DAG layer of the defining file.
bool ValidMetricName(std::string_view name);

/// The cells attached under one instrument name (see Attachment), each read
/// as `*cell - base`, plus what detached cells left behind. Shared by the
/// instrument and every Attachment holding one of its cells, so either may
/// outlive the other.
class CellSet {
 public:
  explicit CellSet(bool gauge) : gauge_(gauge) {}

  /// Adds `cell`, based at its current value (counters) or 0 (gauges).
  void Add(const int64_t* cell);
  /// Folds the cell's final delta into the retained total and drops it.
  void Remove(const int64_t* cell);
  /// Folds the cell's delta so far and re-bases it at zero: the owner is
  /// about to zero the cell, and the count it made so far must stay.
  void FoldToZero(const int64_t* cell);
  /// What the attached cells contribute to the instrument's value.
  int64_t Total() const;

 private:
  const bool gauge_;
  mutable Mutex mu_;
  int64_t retained_ AVDB_GUARDED_BY(mu_) = 0;
  std::unordered_map<const int64_t*, int64_t> bases_ AVDB_GUARDED_BY(mu_);
};

/// Monotone event count: pushed increments plus every attached cell (see
/// Attachment). Increments are relaxed atomics: a registry may be shared
/// by several threads, each driving its own engine, and a counter needs no
/// ordering beyond its own total.
class Counter {
 public:
  Counter(std::string name, std::string help)
      : name_(std::move(name)), help_(std::move(help)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const {
    return value_.load(std::memory_order_relaxed) + cells_->Total();
  }

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  friend class Attachment;
  std::string name_;
  std::string help_;
  std::atomic<int64_t> value_{0};
  std::shared_ptr<CellSet> cells_ = std::make_shared<CellSet>(false);
};

/// Point-in-time level (reserved bandwidth, queue depth, ladder position):
/// the pushed level plus the level of every attached cell.
class Gauge {
 public:
  Gauge(std::string name, std::string help)
      : name_(std::move(name)), help_(std::move(help)) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const {
    return value_.load(std::memory_order_relaxed) + cells_->Total();
  }

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  friend class Attachment;
  std::string name_;
  std::string help_;
  std::atomic<int64_t> value_{0};
  std::shared_ptr<CellSet> cells_ = std::make_shared<CellSet>(true);
};

/// Fixed-bucket histogram. `bounds` are inclusive upper bounds in ascending
/// order; an implicit +Inf bucket catches the rest. Observation cost is one
/// binary search plus two relaxed atomic adds — cheap enough for per-element
/// lateness on the streaming path.
class Histogram {
 public:
  Histogram(std::string name, std::string help, std::vector<int64_t> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(int64_t value);

  int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  int64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Per-bucket (non-cumulative) count; index bounds().size() is +Inf.
  int64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  const std::vector<int64_t>& bounds() const { return bounds_; }

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  std::string name_;
  std::string help_;
  std::vector<int64_t> bounds_;
  std::vector<std::atomic<int64_t>> buckets_;  // bounds_.size() + 1 (+Inf)
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
};

/// Process-wide instrument directory: get-or-create by name, stable
/// pointers for the registry's lifetime, deterministic (name-sorted)
/// export. One registry per experiment; layers receive it by pointer and
/// treat nullptr as "observability off".
///
/// Most layers count in their own plain `Stats` cells and attach them here
/// through an Attachment (pull); export sums every cell attached under a
/// name. Only facts with no cell of their own — distributions, levels a
/// layer computes when they change, registry-only counts — are pushed
/// through Counter/Gauge/Histogram calls.
///
/// All instrument values are integers (counts, ns, bytes), so both export
/// formats are byte-stable across runs of the same virtual-time schedule.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create. The name must satisfy ValidMetricName and must not be
  /// registered as a different instrument kind (programmer error; fails a
  /// CHECK — the registry is not a hot-path layer).
  Counter* GetCounter(const std::string& name, const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const std::string& help = "");
  /// `bounds` must be ascending; ignored when the histogram already exists.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<int64_t> bounds,
                          const std::string& help = "");

  /// Prometheus text exposition (HELP/TYPE comments, cumulative `le`
  /// buckets, `_sum`/`_count` series), instruments in name order.
  std::string PrometheusText() const;
  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}},
  /// instruments in name order.
  std::string Json() const;

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      AVDB_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ AVDB_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      AVDB_GUARDED_BY(mu_);
};

/// A component's binding of its own `int64_t` cells (its `Stats` fields)
/// to a registry: the registry's pull-style entry point. Each cell is read
/// by address whenever the registry exports or an instrument's Value() is
/// read, summed with every other cell attached under the same name, so a
/// component counts each fact once, in its own field.
///
///   * Attach records a counter cell's value as its base: counts made
///     before binding stay unreported.
///   * Detach — or destroying the Attachment, which the owner's destructor
///     does — folds each counter cell's final delta into the instrument,
///     which therefore never goes down.
///   * An owner that zeroes attached counter cells calls FoldToZero first.
///
/// Declare the Attachment after the cells it reads, so it detaches before
/// they die. A copy of the owner has its cells at other addresses, so a
/// copied Attachment starts detached. Assigning over an owner keeps the
/// owner's binding (its cells have not moved) and the registry reads the
/// assigned values, so assign only over an unbound owner, or call
/// FoldToZero first. Attach and Detach are O(1) amortized per cell.
///
/// The cells are plain fields, not atomics: export (or read Value()) on the
/// thread that updates them — for every attached layer today, the event
/// engine's. Counts updated from other threads are pushed instead.
class Attachment {
 public:
  struct Cell {
    const char* name;
    const int64_t* cell;
    const char* help;
    bool gauge = false;  ///< a level, not a count
  };

  Attachment() = default;
  Attachment(const Attachment&) {}
  Attachment& operator=(const Attachment&) { return *this; }
  ~Attachment() { Detach(); }

  /// Detaches, then attaches each of `cells` under its name in `registry`.
  /// A null `registry` only detaches.
  void Attach(MetricsRegistry* registry, std::initializer_list<Cell> cells);
  void Detach();
  /// Folds every counter cell's delta so far into its instrument and
  /// re-bases the cell at zero; call right before zeroing the cells.
  void FoldToZero();

 private:
  std::vector<std::pair<std::shared_ptr<CellSet>, const int64_t*>> cells_;
};

}  // namespace obs
}  // namespace avdb

#endif  // AVDB_OBS_METRICS_H_
