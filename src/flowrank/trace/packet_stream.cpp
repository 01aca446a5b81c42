#include "flowrank/trace/packet_stream.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>
#include <utility>

#include "flowrank/util/rng.hpp"

namespace flowrank::trace {

namespace {
constexpr double kNsPerSec = 1e9;
/// Merge slice width. The Sprint presets put tens to hundreds of packets
/// in a slice, so each sort is small, and stepping over an empty slice
/// is one comparison.
constexpr std::int64_t kSliceNs = 10'000'000;
/// Slices per epoch; the near ring holds two epochs (~20 s).
constexpr std::int64_t kEpochSlices = 1024;
constexpr std::size_t kRingMask = 2 * kEpochSlices - 1;

std::int64_t to_ns(double seconds) {
  return static_cast<std::int64_t>(std::llround(seconds * kNsPerSec));
}

/// Floor division for b > 0, so timestamps before zero land in negative
/// slices instead of sharing slice 0.
std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  const std::int64_t q = a / b;
  return (a % b != 0 && a < 0) ? q - 1 : q;
}

std::int64_t slice_of(std::int64_t timestamp_ns) {
  return floor_div(timestamp_ns, kSliceNs);
}

std::int64_t epoch_of(std::int64_t slice) { return floor_div(slice, kEpochSlices); }

const FlowTrace& deref_checked(const std::shared_ptr<const FlowTrace>& trace) {
  if (!trace) throw std::invalid_argument("PacketStream: null trace");
  return *trace;
}
}  // namespace

PacketStream::PacketStream(const FlowTrace& trace, std::uint64_t seed)
    : trace_(trace), seed_(seed), near_(2 * kEpochSlices) {
  const auto& flows = trace_.flows;
  if (!std::is_sorted(flows.begin(), flows.end(),
                      [](const packet::FlowRecord& a, const packet::FlowRecord& b) {
                        return a.start_s < b.start_s;
                      })) {
    throw std::invalid_argument("PacketStream: flows must be sorted by start_s");
  }
  if (!flows.empty()) enter_slice(slice_of(to_ns(flows.front().start_s)));
}

PacketStream::PacketStream(std::shared_ptr<const FlowTrace> trace,
                           std::uint64_t seed)
    : PacketStream(deref_checked(trace), seed) {
  owned_ = std::move(trace);
}

PacketStream::PacketStream(const TraceSource& source, std::uint64_t seed)
    : PacketStream(std::make_shared<const FlowTrace>(source.flows()), seed) {}

void PacketStream::place_flow(std::uint32_t flow_index) {
  const auto& flow = trace_.flows[flow_index];
  const std::int64_t start_ns = to_ns(flow.start_s);
  placement_.assign(static_cast<std::size_t>(flow.packets), start_ns);
  if (flow.packets > 1 && !(flow.duration_s <= 0.0)) {
    // Stream-independent per-flow RNG: the same flow always gets the same
    // packet placement for a given (trace seed, stream seed) pair.
    auto engine = util::make_engine(trace_.config.seed ^ (seed_ * 0x9e3779b97f4a7c15ULL),
                                    flow_index);
    std::uniform_real_distribution<double> unif(0.0, flow.duration_s);
    for (auto& t : placement_) t = start_ns + to_ns(unif(engine));
    std::sort(placement_.begin(), placement_.end());
  }
  for (std::size_t k = 0; k < placement_.size(); ++k) {
    schedule(Pending{placement_[k], flow_index, static_cast<std::uint32_t>(k)});
  }
}

void PacketStream::schedule(const Pending& packet) {
  const std::int64_t slice = slice_of(packet.timestamp_ns);
  if (slice < near_end_) {
    near_[static_cast<std::size_t>(slice) & kRingMask].push_back(packet);
    ++near_pending_;
  } else {
    far_[epoch_of(slice)].push_back(packet);
  }
}

void PacketStream::enter_slice(std::int64_t slice) {
  slice_ = slice;
  const std::int64_t near_end = (epoch_of(slice) + 2) * kEpochSlices;
  if (near_end <= near_end_) return;
  near_end_ = near_end;
  while (!far_.empty() && far_.begin()->first * kEpochSlices < near_end_) {
    const auto epoch = far_.extract(far_.begin());
    for (const Pending& packet : epoch.mapped()) schedule(packet);
  }
}

bool PacketStream::open_next_slice() {
  ready_.clear();
  cursor_ = 0;
  const auto& flows = trace_.flows;
  while (true) {
    // A flow is placed once its start slice is reached; every packet of a
    // later flow falls in a later slice, so the slice about to be read
    // is complete.
    while (next_flow_ < flows.size() &&
           slice_of(to_ns(flows[next_flow_].start_s)) <= slice_) {
      place_flow(static_cast<std::uint32_t>(next_flow_++));
    }
    if (near_pending_ == 0) {
      // Nothing due within the ring: jump to the next flow start or the
      // first waiting epoch, whichever is earlier.
      std::int64_t target = std::numeric_limits<std::int64_t>::max();
      if (next_flow_ < flows.size()) target = slice_of(to_ns(flows[next_flow_].start_s));
      if (!far_.empty()) target = std::min(target, far_.begin()->first * kEpochSlices);
      if (target == std::numeric_limits<std::int64_t>::max()) return false;
      enter_slice(target);
      continue;
    }
    auto& slot = near_[static_cast<std::size_t>(slice_) & kRingMask];
    if (!slot.empty()) {
      near_pending_ -= slot.size();
      ready_.swap(slot);
      slot = std::vector<Pending>();  // no spare buffers kept per slot
    }
    // The slot is empty now; advancing may refill it with the slice a
    // whole ring later.
    enter_slice(slice_ + 1);
    if (ready_.empty()) continue;
    // (timestamp, flow, packet): the order of a per-packet merge.
    std::sort(ready_.begin(), ready_.end(), [](const Pending& a, const Pending& b) {
      const auto order = [](const Pending& p) {
        return (std::uint64_t{p.flow_index} << 32) | p.packet_index;
      };
      return a.timestamp_ns != b.timestamp_ns ? a.timestamp_ns < b.timestamp_ns
                                              : order(a) < order(b);
    });
    return true;
  }
}

packet::PacketRecord PacketStream::emit(const Pending& packet) const {
  const auto& flow = trace_.flows[packet.flow_index];
  packet::PacketRecord pkt;
  pkt.timestamp_ns = packet.timestamp_ns;
  pkt.tuple = flow.tuple;
  pkt.size_bytes = trace_.config.packet_size_bytes;
  if (flow.tuple.protocol == packet::Protocol::kTcp) {
    pkt.tcp_seq = packet.packet_index * trace_.config.packet_size_bytes;
  }
  return pkt;
}

std::optional<packet::PacketRecord> PacketStream::next() {
  if (cursor_ == ready_.size() && !open_next_slice()) return std::nullopt;
  ++emitted_;
  return emit(ready_[cursor_++]);
}

std::size_t PacketStream::next_batch(std::vector<packet::PacketRecord>& out,
                                     std::size_t max_packets) {
  out.clear();
  while (out.size() < max_packets) {
    if (cursor_ == ready_.size() && !open_next_slice()) break;
    const std::size_t take = std::min(max_packets - out.size(), ready_.size() - cursor_);
    for (std::size_t i = 0; i < take; ++i) out.push_back(emit(ready_[cursor_ + i]));
    cursor_ += take;
  }
  emitted_ += out.size();
  return out.size();
}

std::vector<packet::PacketRecord> expand_trace(const FlowTrace& trace,
                                               std::uint64_t seed) {
  PacketStream stream(trace, seed);
  std::vector<packet::PacketRecord> packets;
  packets.reserve(trace.total_packets());
  while (auto pkt = stream.next()) packets.push_back(*pkt);
  return packets;
}

}  // namespace flowrank::trace
