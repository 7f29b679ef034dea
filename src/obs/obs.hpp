// dvv/obs/obs.hpp
//
// Observability core: a metrics Registry (counters, gauges, bucketed
// histograms), a bounded ring-buffer flight recorder of structured
// events, and two exporters (Prometheus-style text exposition and a
// JSON snapshot).  This layer sits directly above util/ and depends on
// nothing else; every subsystem above it records through the catalogs
// in obs/metrics.hpp.
//
// The cardinal rule is BEHAVIOR INVARIANCE: instrumentation may never
// draw from an Rng, branch differently on system state, or otherwise
// perturb the instrumented code.  A metrics-on run must be
// byte-identical — every replica's every key, digests, receipts — to a
// metrics-off twin (tests/obs_twin_test.cpp proves this for all six
// mechanisms under chaos transport).  Handles therefore only ever do
// `if (enabled) bump a cell`; nothing here feeds back into the system.
//
// Cost model: a handle is two pointers.  When the owning registry is
// disabled, inc()/add() is one well-predicted not-taken branch on a
// cached bool — bench_transport demonstrates that is within run noise
// on the inline-transport hot path.
//
// Knobs (process-wide, read once):
//   DVV_METRICS={off,on}        global registry enabled? (default off;
//                               anything else aborts loudly, like
//                               DVV_MECHANISM)
//   DVV_FLIGHT_RECORDER={off,on,<capacity>}
//                               arm the flight recorder (on = 4096
//                               events); dumps JSON on DVV_ASSERT
//                               failure or on demand
//   DVV_FLIGHT_DUMP=<path>      where the assert-time dump lands
//                               (default ./flight_recorder.json)
//
// Registries are instantiable: the global one (obs::registry()) serves
// the layer catalogs; a local Registry is enabled or not by its
// constructor and ignores DVV_METRICS.  Handles alias registry-owned
// cells, so a registry must outlive its handles and not move.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace dvv::obs {

class Registry;

/// Monotonic event count.  Two pointers; see the cost model above.
/// Cells are relaxed atomics: independent monotonic counts bumped from
/// concurrent shard threads, read only at quiescence (exporters), so
/// no ordering beyond the increment's own atomicity is needed.
class Counter {
 public:
  Counter() = default;

  void inc(std::uint64_t n = 1) const noexcept {
    if (cell_ != nullptr && enabled_->load(std::memory_order_relaxed)) {
      cell_->fetch_add(n, std::memory_order_relaxed);
    }
  }
  /// True when inc() would record: lets a call site with several
  /// same-registry handles collapse their per-handle checks into one
  /// branch (the message hot path meters 3+ counters per send).
  [[nodiscard]] bool armed() const noexcept {
    return cell_ != nullptr && enabled_->load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return cell_ == nullptr ? 0 : cell_->load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  Counter(const std::atomic<bool>* enabled, std::atomic<std::uint64_t>* cell)
      : enabled_(enabled), cell_(cell) {}
  const std::atomic<bool>* enabled_ = nullptr;
  std::atomic<std::uint64_t>* cell_ = nullptr;
};

/// Point-in-time level (watermarks, queue depths).
class Gauge {
 public:
  Gauge() = default;

  void set(double v) const noexcept {
    if (cell_ != nullptr && enabled_->load(std::memory_order_relaxed)) {
      cell_->store(v, std::memory_order_relaxed);
    }
  }
  void add(double v) const noexcept {
    if (cell_ == nullptr || !enabled_->load(std::memory_order_relaxed)) return;
    // fetch_add(double) needs a CAS loop pre-C++23 on some libstdc++;
    // spell it out so the ordering stays relaxed and portable.
    double cur = cell_->load(std::memory_order_relaxed);
    while (!cell_->compare_exchange_weak(cur, cur + v,
                                         std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
    }
  }
  /// Raises the gauge to `v` if higher — the high-watermark idiom.
  void set_max(double v) const noexcept {
    if (cell_ == nullptr || !enabled_->load(std::memory_order_relaxed)) return;
    double cur = cell_->load(std::memory_order_relaxed);
    while (v > cur && !cell_->compare_exchange_weak(
                          cur, v, std::memory_order_relaxed,
                          std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return cell_ == nullptr ? 0.0 : cell_->load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  Gauge(const std::atomic<bool>* enabled, std::atomic<double>* cell)
      : enabled_(enabled), cell_(cell) {}
  const std::atomic<bool>* enabled_ = nullptr;
  std::atomic<double>* cell_ = nullptr;
};

/// Distribution with p50/p99/p999 (util::BucketHistogram underneath).
class HistogramHandle {
 public:
  HistogramHandle() = default;

  void record(std::uint64_t value) const noexcept {
    if (cell_ != nullptr && enabled_->load(std::memory_order_relaxed)) {
      cell_->add(value);
    }
  }
  /// Null for a default-constructed handle.
  [[nodiscard]] const util::BucketHistogram* histogram() const noexcept {
    return cell_;
  }

 private:
  friend class Registry;
  HistogramHandle(const std::atomic<bool>* enabled, util::BucketHistogram* cell)
      : enabled_(enabled), cell_(cell) {}
  const std::atomic<bool>* enabled_ = nullptr;
  util::BucketHistogram* cell_ = nullptr;
};

/// Named metric store.  Registration is idempotent — asking twice for
/// one name yields handles over the same cell.  Thread-safe since
/// ROADMAP item 1 put real shard threads behind the catalogs:
/// registration and lookup are mutex-guarded, cells are relaxed
/// atomics bumped lock-free through the handles (std::map node
/// stability keeps handle pointers valid forever).  Exporters and
/// reset() read/write cells relaxed — call them at quiescence for a
/// coherent cross-cell snapshot.
class Registry {
 public:
  explicit Registry(bool enabled = true) : enabled_(enabled) {}

  Registry(const Registry&) = delete;  // handles alias our cells
  Registry& operator=(const Registry&) = delete;

  [[nodiscard]] Counter counter(const std::string& name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return {&enabled_, &counters_[name]};
  }
  [[nodiscard]] Gauge gauge(const std::string& name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return {&enabled_, &gauges_[name]};
  }
  [[nodiscard]] HistogramHandle histogram(const std::string& name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return {&enabled_, &histograms_[name]};
  }

  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// 0 / 0.0 / null for names never registered.
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;
  [[nodiscard]] double gauge_value(const std::string& name) const;
  [[nodiscard]] const util::BucketHistogram* find_histogram(
      const std::string& name) const;

  /// Zeroes every cell; registrations (and handles) stay valid.
  void reset() noexcept;

  /// Prometheus text exposition: names sanitized ('.' and '-' to '_'),
  /// counters/gauges as single samples, histograms as cumulative
  /// `_bucket{le=...}` series plus `_sum`/`_count`.
  [[nodiscard]] std::string prometheus_text() const;
  /// One-line JSON object: {"enabled":..., "counters":{...},
  /// "gauges":{...}, "histograms":{...}} — the shape benches embed.
  [[nodiscard]] std::string json_snapshot() const;

 private:
  std::atomic<bool> enabled_;
  mutable std::mutex mutex_;  ///< guards the maps, not the cells
  // std::map: node stability keeps handle pointers valid forever.
  std::map<std::string, std::atomic<std::uint64_t>> counters_;
  std::map<std::string, std::atomic<double>> gauges_;
  std::map<std::string, util::BucketHistogram> histograms_;
};

/// One structured flight-recorder event.  `category`/`name` must be
/// string LITERALS (stored as pointers, never copied or freed).
struct FlightEvent {
  std::uint64_t seq = 0;       ///< global record index (monotonic)
  std::uint64_t t_us = 0;      ///< microseconds since recorder start
  std::uint64_t trace_id = 0;  ///< request id (slot|generation) or 0
  const char* category = "";   ///< subsystem ("coord", "net", "aae", ...)
  const char* name = "";       ///< event kind within the category
  std::uint64_t a = 0;         ///< event-specific operands
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

/// Bounded ring of the last `capacity` events; the crash black box.
/// Disabled (capacity 0) it records nothing at one relaxed load per
/// call; enabled, record() serializes on a mutex (the recorder is a
/// debugging aid, not a hot-path metric — correctness under shard
/// threads beats contention here).
class FlightRecorder {
 public:
  /// Sizes (or resizes, clearing) the ring; 0 disarms the recorder.
  void configure(std::size_t capacity);

  [[nodiscard]] bool enabled() const noexcept {
    return capacity_.load(std::memory_order_relaxed) != 0;
  }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return capacity_.load(std::memory_order_relaxed);
  }
  /// Events currently held (≤ capacity).
  [[nodiscard]] std::size_t size() const noexcept;
  /// Events ever recorded (overwritten ones included).
  [[nodiscard]] std::uint64_t recorded() const noexcept { return next_seq_; }

  void record(const char* category, const char* name, std::uint64_t trace_id = 0,
              std::uint64_t a = 0, std::uint64_t b = 0,
              std::uint64_t c = 0) noexcept;

  void clear() noexcept;

  /// {"recorded":N, "dropped":M, "events":[...]} — oldest surviving
  /// event first.
  [[nodiscard]] std::string dump_json() const;
  /// Writes dump_json() to `path`; false on I/O failure.
  bool dump_to_file(const char* path) const;

 private:
  mutable std::mutex mutex_;  ///< guards ring_ and next_seq_
  std::vector<FlightEvent> ring_;
  std::atomic<std::size_t> capacity_{0};  ///< relaxed disabled-check fast path
  std::uint64_t next_seq_ = 0;
  std::uint64_t start_us_ = 0;  ///< steady-clock anchor of the first configure
};

/// The process-wide registry the layer catalogs (obs/metrics.hpp) live
/// in.  Enabled iff DVV_METRICS=on at first use (or set_metrics_enabled).
[[nodiscard]] Registry& registry();

/// Flips the global registry at runtime (tests, benches).
void set_metrics_enabled(bool on) noexcept;

/// The process-wide flight recorder, armed per DVV_FLIGHT_RECORDER at
/// first use.  DVV_ASSERT failures dump it to DVV_FLIGHT_DUMP
/// (default ./flight_recorder.json) before aborting.
[[nodiscard]] FlightRecorder& flight();

namespace detail {

/// DVV_METRICS parser: "on"/"1" true, "off"/"0"/null false, anything
/// else aborts loudly (a typo in a CI leg must not silently measure
/// nothing and pass).
[[nodiscard]] bool parse_metrics_env(const char* value);

/// DVV_FLIGHT_RECORDER parser: "on" = 4096, "off"/"0"/null = 0, a
/// positive integer = that capacity; anything else aborts loudly.
[[nodiscard]] std::size_t parse_flight_env(const char* value);

}  // namespace detail

}  // namespace dvv::obs
