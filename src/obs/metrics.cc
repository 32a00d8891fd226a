#include "obs/metrics.h"

#include <algorithm>

#include "base/logging.h"

namespace avdb {
namespace obs {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool ValidMetricName(std::string_view name) {
  if (name.substr(0, 5) != "avdb_") return false;
  int segments = 1;
  char prev = '_';
  for (size_t i = 5; i < name.size(); ++i) {
    const char c = name[i];
    if (c == '_') {
      if (prev == '_') return false;  // empty segment
      ++segments;
    } else if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'))) {
      return false;
    }
    prev = c;
  }
  return segments >= 3 && prev != '_';
}

Histogram::Histogram(std::string name, std::string help,
                     std::vector<int64_t> bounds)
    : name_(std::move(name)),
      help_(std::move(help)),
      bounds_(std::move(bounds)),
      buckets_(bounds_.size() + 1) {
  AVDB_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()))
      << "histogram " << name_ << " bounds must be ascending";
}

void Histogram::Observe(int64_t value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  buckets_[static_cast<size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

void CellSet::Add(const int64_t* cell) {
  MutexLock lock(mu_);
  const bool added = bases_.emplace(cell, gauge_ ? 0 : *cell).second;
  AVDB_CHECK(added) << "cell attached twice under one name";
}

void CellSet::Remove(const int64_t* cell) {
  MutexLock lock(mu_);
  const auto it = bases_.find(cell);
  // A gauge keeps the level its last detached cell had, as a pushed gauge
  // keeps its last Set; a counter keeps the count.
  retained_ = gauge_ ? *cell : retained_ + (*cell - it->second);
  bases_.erase(it);
}

void CellSet::FoldToZero(const int64_t* cell) {
  if (gauge_) return;
  MutexLock lock(mu_);
  int64_t& base = bases_.find(cell)->second;
  retained_ += *cell - base;
  base = 0;
}

int64_t CellSet::Total() const {
  MutexLock lock(mu_);
  if (gauge_ && bases_.empty()) return retained_;
  int64_t total = gauge_ ? 0 : retained_;
  for (const auto& [cell, base] : bases_) total += *cell - base;
  return total;
}

void Attachment::Attach(MetricsRegistry* registry,
                        std::initializer_list<Cell> cells) {
  Detach();
  if (registry == nullptr) return;
  cells_.reserve(cells.size());
  for (const Cell& c : cells) {
    std::shared_ptr<CellSet> set =
        c.gauge ? registry->GetGauge(c.name, c.help)->cells_
                : registry->GetCounter(c.name, c.help)->cells_;
    set->Add(c.cell);
    cells_.emplace_back(std::move(set), c.cell);
  }
}

void Attachment::Detach() {
  for (const auto& [set, cell] : cells_) set->Remove(cell);
  cells_.clear();
}

void Attachment::FoldToZero() {
  for (const auto& [set, cell] : cells_) set->FoldToZero(cell);
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  AVDB_CHECK(ValidMetricName(name))
      << "instrument name violates the naming convention: " << name;
  MutexLock lock(mu_);
  AVDB_CHECK(gauges_.count(name) == 0 && histograms_.count(name) == 0)
      << name << " already registered as a different instrument kind";
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>(name, help);
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  AVDB_CHECK(ValidMetricName(name))
      << "instrument name violates the naming convention: " << name;
  MutexLock lock(mu_);
  AVDB_CHECK(counters_.count(name) == 0 && histograms_.count(name) == 0)
      << name << " already registered as a different instrument kind";
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>(name, help);
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<int64_t> bounds,
                                         const std::string& help) {
  AVDB_CHECK(ValidMetricName(name))
      << "instrument name violates the naming convention: " << name;
  MutexLock lock(mu_);
  AVDB_CHECK(counters_.count(name) == 0 && gauges_.count(name) == 0)
      << name << " already registered as a different instrument kind";
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(name, help, std::move(bounds));
  }
  return slot.get();
}

std::string MetricsRegistry::PrometheusText() const {
  MutexLock lock(mu_);
  std::string out;
  for (const auto& [name, c] : counters_) {
    if (!c->help().empty()) {
      out += "# HELP " + name + " " + c->help() + "\n";
    }
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(c->Value()) + "\n";
  }
  for (const auto& [name, g] : gauges_) {
    if (!g->help().empty()) {
      out += "# HELP " + name + " " + g->help() + "\n";
    }
    out += "# TYPE " + name + " gauge\n";
    out += name + " " + std::to_string(g->Value()) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    if (!h->help().empty()) {
      out += "# HELP " + name + " " + h->help() + "\n";
    }
    out += "# TYPE " + name + " histogram\n";
    int64_t cumulative = 0;
    for (size_t i = 0; i < h->bounds().size(); ++i) {
      cumulative += h->BucketCount(i);
      out += name + "_bucket{le=\"" + std::to_string(h->bounds()[i]) +
             "\"} " + std::to_string(cumulative) + "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(h->Count()) + "\n";
    out += name + "_sum " + std::to_string(h->Sum()) + "\n";
    out += name + "_count " + std::to_string(h->Count()) + "\n";
  }
  return out;
}

std::string MetricsRegistry::Json() const {
  MutexLock lock(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + std::to_string(c->Value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + std::to_string(g->Value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":{\"buckets\":[";
    for (size_t i = 0; i <= h->bounds().size(); ++i) {
      if (i > 0) out += ",";
      out += "[";
      out += i < h->bounds().size() ? std::to_string(h->bounds()[i])
                                    : std::string("null");
      out += "," + std::to_string(h->BucketCount(i)) + "]";
    }
    out += "],\"sum\":" + std::to_string(h->Sum()) +
           ",\"count\":" + std::to_string(h->Count()) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace obs
}  // namespace avdb
