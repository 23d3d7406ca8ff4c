#pragma once
// Simulated message passing for distributed-memory experiments.
//
// CLAMR is an MPI mini-app, and the paper's §III.C is about what parallel
// decomposition does to global sums. We simulate ranks: a VirtualComm
// holds the messages in flight between R ranks, and the driver runs the
// ranks' compute phases (possibly on an OpenMP team, one rank per task)
// between communication calls. There is one schedule, the nonblocking MPI
// idiom: post_bytes() puts a message in flight immediately (MPI_Isend
// against a pre-posted MPI_Irecv), the rank computes whatever does not
// depend on the ghost data, and complete() waits on one message matched
// by (source, tag). There is no global barrier, so interior work overlaps
// the exchange exactly as it would over a real wire.
//
// Because ranks are virtual and in-process, the communicator is also the
// natural tap for the cross-rank flight recorder (DESIGN.md §15): every
// delivery emits one message-edge record (src, dst, tag, bytes, post and
// deliver timestamps) when tracing is on, and per-source-rank byte
// counters accumulate unconditionally — they are deterministic counts of
// the decomposition, not timings.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace tp::par {

/// A tagged point-to-point message of raw bytes, so the wire carries
/// storage-precision values (a float-storage policy moves half the bytes
/// of a double one, as a real MPI datatype would).
struct Message {
    int source = 0;
    int tag = 0;
    std::vector<std::byte> bytes;
    /// Trace timestamp of the post (obs::detail::trace_now_ns()),
    /// stamped only while tracing — 0 otherwise.
    std::int64_t post_ns = 0;
};

/// Nonblocking communicator for R virtual ranks.
class VirtualComm {
public:
    explicit VirtualComm(int size)
        : size_(size), rank_bytes_sent_(static_cast<std::size_t>(size), 0) {
        if (size < 1) throw std::invalid_argument("VirtualComm: size < 1");
    }

    [[nodiscard]] int size() const { return size_; }

    /// A buffer of `n` bytes, reusing a previously release()d one when
    /// available — the steady state of a halo-exchange loop allocates
    /// nothing.
    [[nodiscard]] std::vector<std::byte> acquire(std::size_t n) {
        if (pool_.empty()) return std::vector<std::byte>(n);
        std::vector<std::byte> buf = std::move(pool_.back());
        pool_.pop_back();
        buf.resize(n);
        return buf;
    }

    /// Return a drained message buffer to the pool.
    void release(std::vector<std::byte> buf) {
        pool_.push_back(std::move(buf));
    }

    /// Total bytes posted through post_bytes().
    [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }

    /// Bytes posted BY `rank` (as the source). Deterministic for a
    /// fixed decomposition, so tests pin per-edge trace bytes to it.
    [[nodiscard]] std::uint64_t bytes_sent(int rank) const {
        check_rank(rank);
        return rank_bytes_sent_[static_cast<std::size_t>(rank)];
    }

    /// Nonblocking send: the message is in flight immediately, with no
    /// phase barrier — the receiver claims it with complete(). Pair with
    /// acquire()/release() to recycle buffers instead of allocating one
    /// per post.
    void post_bytes(int source, int dest, int tag,
                    std::vector<std::byte> bytes) {
        check_rank(source);
        check_rank(dest);
        bytes_sent_ += bytes.size();
        rank_bytes_sent_[static_cast<std::size_t>(source)] += bytes.size();
        in_flight_.push_back(
            {dest, Message{source, tag, std::move(bytes), stamp()}});
    }

    /// Wait on one posted message (MPI_Wait on the matching request);
    /// throws if nothing matching was posted — a deadlock in the
    /// simulated schedule.
    [[nodiscard]] Message complete(int rank, int source, int tag) {
        check_rank(rank);
        for (std::size_t i = 0; i < in_flight_.size(); ++i) {
            auto& [dest, msg] = in_flight_[i];
            if (dest == rank && msg.source == source && msg.tag == tag) {
                Message m = std::move(msg);
                in_flight_[i] = std::move(in_flight_.back());
                in_flight_.pop_back();
                record_edge(rank, m);
                return m;
            }
        }
        throw std::runtime_error(
            "VirtualComm::complete: no matching posted message");
    }

    /// True when nothing is in flight (no unconsumed traffic).
    [[nodiscard]] bool drained() const { return in_flight_.empty(); }

private:
    void check_rank(int r) const {
        if (r < 0 || r >= size_)
            throw std::out_of_range("VirtualComm: bad rank");
    }

    /// Trace timestamp for a post, or 0 when tracing is off (one relaxed
    /// load, no clock read — the zero-cost-off contract).
    [[nodiscard]] static std::int64_t stamp() {
        return obs::trace_enabled() ? obs::detail::trace_now_ns() : 0;
    }

    /// Emit the message-edge trace record at delivery, when both
    /// endpoints and both timestamps are known.
    static void record_edge(int rank, const Message& m) {
        if (!obs::trace_enabled()) return;
        obs::trace_edge(m.source, rank, m.tag, m.bytes.size(), m.post_ns,
                        obs::detail::trace_now_ns());
    }

    int size_;
    std::vector<std::pair<int, Message>> in_flight_;
    std::vector<std::vector<std::byte>> pool_;
    std::uint64_t bytes_sent_ = 0;
    std::vector<std::uint64_t> rank_bytes_sent_;  ///< indexed by source
};

}  // namespace tp::par
