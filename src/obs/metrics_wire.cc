#include "src/obs/metrics_wire.h"

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/byte_io.h"

namespace rntraj {
namespace obs {

namespace {

bool SetError(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = "metrics codec: " + msg;
  return false;
}

bool EncodeHistogram(const HistogramSnapshot& h, std::string* out,
                     std::string* error) {
  const size_t num_edges = h.edges != nullptr ? h.edges->size() : 0;
  if (num_edges > kMaxHistogramEdges) {
    return SetError(error, "histogram edge count exceeds cap");
  }
  if (h.counts.size() != num_edges + 1) {
    return SetError(error, "histogram counts/edges size mismatch");
  }
  PutU32(out, static_cast<uint32_t>(num_edges));
  for (size_t i = 0; i < num_edges; ++i) PutF64(out, (*h.edges)[i]);
  for (int64_t c : h.counts) PutI64(out, c);
  PutF64(out, h.sum);
  PutF64(out, h.min);
  PutF64(out, h.max);
  return true;
}

bool DecodeHistogram(ByteReader& cur, HistogramSnapshot* out) {
  // An edge is 8 bytes and its count another 8.
  uint32_t num_edges = 0;
  if (!cur.GetCount(&num_edges, 16, kMaxHistogramEdges)) return false;
  auto edges = std::make_shared<std::vector<double>>(num_edges);
  for (double& e : *edges) {
    if (!cur.GetF64(&e)) return false;
  }
  out->counts.assign(num_edges + 1, 0);
  for (int64_t& c : out->counts) {
    if (!cur.GetI64(&c)) return false;
  }
  out->edges = std::move(edges);
  return cur.GetF64(&out->sum) && cur.GetF64(&out->min) &&
         cur.GetF64(&out->max);
}

}  // namespace

bool EncodeMetricsSnapshot(const MetricsSnapshot& snap, std::string* out,
                           std::string* error) {
  if (snap.counters.size() > kMaxMetricEntries ||
      snap.gauges.size() > kMaxMetricEntries ||
      snap.histograms.size() > kMaxMetricEntries) {
    return SetError(error, "entry count exceeds cap");
  }
  std::string body;
  PutU32(&body, static_cast<uint32_t>(snap.counters.size()));
  for (const auto& [name, value] : snap.counters) {
    if (name.size() > kMaxMetricName) {
      return SetError(error, "counter name exceeds cap: " + name);
    }
    PutString(&body, name);
    PutI64(&body, value);
  }
  PutU32(&body, static_cast<uint32_t>(snap.gauges.size()));
  for (const auto& [name, value] : snap.gauges) {
    if (name.size() > kMaxMetricName) {
      return SetError(error, "gauge name exceeds cap: " + name);
    }
    PutString(&body, name);
    PutF64(&body, value);
  }
  PutU32(&body, static_cast<uint32_t>(snap.histograms.size()));
  for (const auto& [name, hist] : snap.histograms) {
    if (name.size() > kMaxMetricName) {
      return SetError(error, "histogram name exceeds cap: " + name);
    }
    PutString(&body, name);
    if (!EncodeHistogram(hist, &body, error)) return false;
  }
  out->append(body);
  return true;
}

bool DecodeMetricsSnapshot(const char* data, size_t size,
                           MetricsSnapshot* out, std::string* error) {
  ByteReader cur(data, size);
  MetricsSnapshot snap;  // decode into a local: *out untouched on failure

  // Smallest entries: a counter or gauge is a name length + 8 bytes; a
  // histogram is a name length, an edge count, one bucket count and
  // sum/min/max (40 bytes).
  uint32_t n = 0;
  if (!cur.GetCount(&n, 12, kMaxMetricEntries)) {
    return SetError(error, "bad counter count");
  }
  for (uint32_t i = 0; i < n; ++i) {
    std::string name;
    int64_t value = 0;
    if (!cur.GetString(&name, kMaxMetricName) || !cur.GetI64(&value)) {
      return SetError(error, "truncated counter entry");
    }
    snap.counters[std::move(name)] = value;
  }
  if (!cur.GetCount(&n, 12, kMaxMetricEntries)) {
    return SetError(error, "bad gauge count");
  }
  for (uint32_t i = 0; i < n; ++i) {
    std::string name;
    double value = 0.0;
    if (!cur.GetString(&name, kMaxMetricName) || !cur.GetF64(&value)) {
      return SetError(error, "truncated gauge entry");
    }
    snap.gauges[std::move(name)] = value;
  }
  if (!cur.GetCount(&n, 40, kMaxMetricEntries)) {
    return SetError(error, "bad histogram count");
  }
  for (uint32_t i = 0; i < n; ++i) {
    std::string name;
    HistogramSnapshot hist;
    if (!cur.GetString(&name, kMaxMetricName) || !DecodeHistogram(cur, &hist)) {
      return SetError(error, "truncated histogram entry");
    }
    snap.histograms[std::move(name)] = std::move(hist);
  }
  if (!cur.ok()) return SetError(error, "malformed payload");
  if (cur.remaining() != 0) {
    return SetError(error, "trailing bytes after snapshot");
  }
  *out = std::move(snap);
  return true;
}

}  // namespace obs
}  // namespace rntraj
