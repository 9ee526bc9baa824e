#ifndef RNTRAJ_OBS_METRICS_WIRE_H_
#define RNTRAJ_OBS_METRICS_WIRE_H_

#include <cstddef>
#include <string>

#include "src/obs/metrics.h"

/// \file metrics_wire.h
/// Binary MetricsSnapshot codec — the fleet control endpoint's export
/// plumbing. ToJson/ToPrometheusText serve scrapers; this codec serves the
/// router, which needs the snapshot back as a *structured* object so exact
/// histogram bucket counts survive the hop and MetricsSnapshot::Merge can
/// aggregate worker snapshots into fleet-level p50/p99 (text exports round
/// through decimal and cannot be merged losslessly).
///
/// The decoder reads through src/common/byte_io.h's ByteReader: every
/// malformed input — truncation, oversized counts, a histogram whose count
/// array disagrees with its edge array — returns false with a diagnostic in
/// `*error` and leaves `*out` untouched. Untrusted bytes never abort.

namespace rntraj {
namespace obs {

/// Caps enforced by both sides; an encode that would exceed them fails
/// rather than emitting a frame the decoder must reject.
inline constexpr size_t kMaxMetricName = 4096;
inline constexpr size_t kMaxMetricEntries = 1u << 16;
inline constexpr size_t kMaxHistogramEdges = 1u << 16;

/// Appends the snapshot's binary image to `*out`. Returns false (without a
/// partial append) if a name or entry count exceeds the caps above.
bool EncodeMetricsSnapshot(const MetricsSnapshot& snap, std::string* out,
                           std::string* error);

/// Parses `data[0..size)` into `*out`. Returns false + `*error` (and leaves
/// `*out` untouched) on any malformed input.
bool DecodeMetricsSnapshot(const char* data, size_t size,
                           MetricsSnapshot* out, std::string* error);

}  // namespace obs
}  // namespace rntraj

#endif  // RNTRAJ_OBS_METRICS_WIRE_H_
