// Flow-level → packet-level trace expansion.
//
// Exactly the paper's regeneration procedure (Sec. 8.1): "For a flow of
// size S, duration D and starting time T ... we distribute these packets
// uniformly in the interval [T, T+D]". Packets across flows are merged in
// time order by time slice: a flow's packets are scattered into fixed
// 10 ms slices when its start time is reached, and each slice is sorted
// just before it is read. Memory is O(packets placed but not yet read),
// never the whole trace, so a 30-minute trace streams without
// materializing tens of millions of packets.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "flowrank/packet/records.hpp"
#include "flowrank/trace/flow_trace_generator.hpp"
#include "flowrank/trace/trace_source.hpp"

namespace flowrank::trace {

/// Streams the packets of a flow trace in non-decreasing timestamp order.
///
/// The front-end of the trace layer: it accepts a caller-owned FlowTrace,
/// a shared one, or any TraceSource (synthetic, FRT1 file replay,
/// concatenated epochs) and expands flows to packets identically for all
/// of them — everything downstream is source-agnostic.
///
/// Packets come out ordered by (timestamp, flow index, packet index), the
/// order of a per-packet merge of the flows; a flow with zero packets
/// emits nothing. Precondition: the trace's flows are sorted by start_s
/// (every TraceSource guarantees it; the constructors throw
/// std::invalid_argument otherwise).
///
/// TCP flows carry synthetic sequence numbers (cumulative byte offsets), so
/// the TCP-seq size estimator (paper future-work #2) can be exercised.
class PacketStream {
 public:
  /// `trace` must outlive the stream. Packet placement is deterministic in
  /// (trace seed, `seed`) so multiple sampling runs see the same packets.
  PacketStream(const FlowTrace& trace, std::uint64_t seed = 0);

  /// Owning variant: keeps the trace alive for the stream's lifetime.
  explicit PacketStream(std::shared_ptr<const FlowTrace> trace,
                        std::uint64_t seed = 0);

  /// Materializes `source` and owns the result. Packets are identical to
  /// streaming the same FlowTrace directly.
  explicit PacketStream(const TraceSource& source, std::uint64_t seed = 0);

  /// Returns the next packet, or nullopt at end of trace.
  [[nodiscard]] std::optional<packet::PacketRecord> next();

  /// Batched pull: clears `out` and refills it with up to `max_packets`
  /// packets in timestamp order. Returns the number delivered (0 at end of
  /// trace). Calls may be mixed freely with next(). Feeding the ingest
  /// pipeline in batches keeps the sampler and the flow table each working
  /// over a cache-resident chunk.
  std::size_t next_batch(std::vector<packet::PacketRecord>& out,
                         std::size_t max_packets);

  /// Packets emitted so far.
  [[nodiscard]] std::uint64_t emitted() const noexcept { return emitted_; }

 private:
  /// A placed packet waiting for its slice to be read.
  struct Pending {
    std::int64_t timestamp_ns;
    std::uint32_t flow_index;
    std::uint32_t packet_index;
  };

  [[nodiscard]] bool open_next_slice();
  void place_flow(std::uint32_t flow_index);
  void schedule(const Pending& packet);
  void enter_slice(std::int64_t slice);
  [[nodiscard]] packet::PacketRecord emit(const Pending& packet) const;

  std::shared_ptr<const FlowTrace> owned_;  ///< null for the reference ctor
  const FlowTrace& trace_;
  std::uint64_t seed_;
  std::size_t next_flow_ = 0;  ///< next trace flow not yet placed
  /// Slices [slice_, near_end_) live in `near_`, a ring indexed by
  /// slice & (size - 1); later packets wait in `far_`, bucketed by
  /// epoch (a ring half), until the ring reaches them. The fixed ring
  /// keeps memory bounded whatever the flow durations.
  std::int64_t slice_ = 0;  ///< next slice to open
  /// First slice held in far_.
  std::int64_t near_end_ = std::numeric_limits<std::int64_t>::min();
  std::vector<std::vector<Pending>> near_;
  std::size_t near_pending_ = 0;  ///< packets held in near_
  std::map<std::int64_t, std::vector<Pending>> far_;
  std::vector<Pending> ready_;  ///< the open slice, sorted
  std::size_t cursor_ = 0;      ///< next packet of ready_
  std::vector<std::int64_t> placement_;  ///< one flow's timestamps (scratch)
  std::uint64_t emitted_ = 0;
};

/// Convenience: expands the whole trace into a vector (small traces only).
[[nodiscard]] std::vector<packet::PacketRecord> expand_trace(const FlowTrace& trace,
                                                             std::uint64_t seed = 0);

}  // namespace flowrank::trace
