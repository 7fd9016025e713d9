#pragma once
/// \file wide_sim.hpp
/// \brief Block-wide bit-parallel gate simulator: the LaneBlock<W> generalization
/// of PackedSimulator. Every net carries `blocks` LaneBlock<W>s (blocks * W *
/// 64 fault lanes), and the eval / eval_incremental / tick / inject / restore
/// inner loops are written over the block type, so GCC/Clang lower each gate
/// evaluation to one AVX2 (W=4) or AVX-512 (W=8) operation per block where
/// the build architecture allows. Sweeping several blocks per op keeps the
/// vector pipelines busy past the register-width ceiling: the per-op operand
/// pointers are formed once and the block loop runs back-to-back independent
/// SIMD ops on adjacent cache lines (net-major storage: net n's blocks are
/// contiguous at [n * blocks, (n + 1) * blocks)).
///
/// WideSimulator<W> shares PackedSimulator's levelized op list, fanout-CSR
/// dirty-set machinery (dirty is tracked per net, a net is dirty when any of
/// its blocks changed) and coherence contract after restore_ff_state(), and
/// every lane is bit-identical to the scalar simulator running that lane's
/// scenario (the scalar 64-bit path in packed_sim.hpp is deliberately
/// untouched as the differential reference; see tests/test_lane_width.cpp).
/// It differs in one mechanism: tick() is event-driven. The scalar tick
/// visits every flip-flop; this one visits only the flip-flops whose D net
/// changed or whose Q was injected since the last edge, which yields the
/// same state because every other flip-flop already holds Q == D. Blocks
/// cross this interface by reference only: the SIMD argument ABI of the
/// build flags never leaks between translation units.

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/lane_block.hpp"

namespace ffr::sim {

template <std::size_t W>
class WideSimulator {
 public:
  using Block = LaneBlock<W>;
  /// Lanes per single block; total lanes are num_blocks() * kLanes.
  static constexpr std::size_t kLanes = Block::kLanes;

  /// The netlist must be finalized. The simulator keeps a reference; the
  /// netlist must outlive it. `blocks` lane blocks are swept per pass.
  /// \throws std::invalid_argument when blocks is 0 or exceeds
  /// kMaxLaneBlocksPerPass.
  explicit WideSimulator(const netlist::Netlist& nl, std::size_t blocks = 1);

  [[nodiscard]] std::size_t num_blocks() const noexcept { return blocks_; }
  [[nodiscard]] std::size_t lanes() const noexcept { return blocks_ * kLanes; }

  /// Resets every flip-flop to its init value (all lanes) and clears inputs.
  void reset();

  /// Broadcasts `value` to every block of a primary-input net.
  void set_input(netlist::NetId net, const Block& value);

  /// Sets one block of a primary-input net (per-block loopback values).
  void set_input_block(netlist::NetId net, std::size_t block, const Block& value);

  /// Re-evaluates all combinational logic from current inputs + FF states.
  void eval();

  /// Event-driven sweep over the dirty cone; bit-identical to eval(). Falls
  /// back to a full eval() while the stored values are not known to be
  /// coherent (after restore_ff_state()), exactly like the scalar path — a
  /// restored block invalidates every combinational net, including blocks
  /// that were dirtied before the restore and never restored themselves.
  void eval_incremental();

  /// Clock edge: every flip-flop captures its D input. Call eval() or
  /// eval_incremental() first: the sweep is what queues the flip-flops
  /// whose D changed.
  ///
  /// Invariant: every flip-flop outside the tick queue holds Q == D. An edge
  /// leaves Q == D behind on every flip-flop it captures, and until the next
  /// one only two things can break that for a flip-flop: its D net changes
  /// (a primary input, a loopback, another flip-flop's Q, or a swept op's
  /// output — eval_incremental() queues the D readers of every net it drains
  /// or re-evaluates to a new value), or inject() flips its Q (inject()
  /// queues it). So tick() visits only the queue: gather every D, then
  /// commit every Q. eval() records no per-net changes and queues every
  /// flip-flop, so the first edge after reset() or a restore_ff_state()
  /// resync, and every edge of the full-sweep replay modes, ticks all of
  /// them.
  void tick();

  /// Flips the stored state of a flip-flop in the lanes of block `block`
  /// set in `mask`.
  void inject(netlist::CellId ff_cell, const Block& mask, std::size_t block = 0);

  [[nodiscard]] std::size_t num_ffs() const noexcept { return ffs_.size(); }

  /// Copies every flip-flop's Q blocks into `out`, flip-flop-major: FF i's
  /// blocks land at [i * num_blocks(), (i + 1) * num_blocks()).
  void snapshot_ff_state(std::vector<Block>& out) const;

  /// Overwrites every flip-flop's Q blocks from `state` (same order/size as
  /// snapshot_ff_state). Combinational nets become stale: the next
  /// eval_incremental() performs a full sweep to re-establish coherence.
  /// \throws std::invalid_argument on a size mismatch.
  void restore_ff_state(std::span<const Block> state);

  [[nodiscard]] const Block& value(netlist::NetId net, std::size_t block = 0) const {
    return values_[net * blocks_ + block];
  }
  /// Bit of a net in a global lane index in [0, lanes()).
  [[nodiscard]] bool value_in_lane(netlist::NetId net, std::size_t lane) const {
    return values_[net * blocks_ + lane / kLanes].lane(lane % kLanes);
  }

  /// Current Q block of a flip-flop.
  [[nodiscard]] const Block& ff_state(netlist::CellId ff_cell,
                                      std::size_t block = 0) const;

  [[nodiscard]] const netlist::Netlist& netlist() const noexcept { return *nl_; }

  /// Number of eval()/eval_incremental() sweeps since construction.
  [[nodiscard]] std::uint64_t eval_count() const noexcept { return eval_count_; }

  /// Individual op evaluations since construction (one per op per sweep,
  /// regardless of block width or block count): eval() adds the full op
  /// count, eval_incremental() only the ops it actually visited.
  [[nodiscard]] std::uint64_t ops_evaluated() const noexcept {
    return ops_evaluated_;
  }

 private:
  struct Op {
    netlist::CellFunc func;
    std::uint8_t num_inputs;
    netlist::NetId in[4];
    netlist::NetId out;
  };
  struct FfSlot {
    netlist::NetId d;
    netlist::NetId q;
    Block init;
  };

  void mark_dirty(netlist::NetId net);
  void schedule_fanout(netlist::NetId net);
  void schedule_ff(std::uint32_t slot);
  void schedule_all_ffs();
  void clear_dirty();

  const netlist::Netlist* nl_;
  std::size_t blocks_ = 1;
  std::vector<Op> ops_;              // combinational cells, topo order
  std::vector<FfSlot> ffs_;          // all flip-flops
  std::vector<Block> values_;        // net-major: blocks_ blocks per net
  std::vector<Block> next_state_;    // scratch for tick(), committed_ffs_-major
  std::vector<std::uint32_t> ff_slot_;  // CellId -> index into ffs_ (or ~0)

  // Dirty-set machinery, identical in structure to PackedSimulator (see
  // packed_sim.hpp for the level-bucket scheduling rationale), except that
  // the fanout also lists the flip-flops reading a net as D, tagged with
  // kFfReader: those go to the tick queue, not to a level bucket.
  static constexpr std::uint32_t kFfReader = std::uint32_t{1} << 31;
  std::vector<std::uint32_t> fanout_begin_;
  std::vector<std::uint32_t> fanout_ops_;  // op index, or FF slot | kFfReader
  std::vector<std::uint32_t> op_level_;
  std::vector<std::vector<std::uint32_t>> level_buckets_;
  std::vector<netlist::NetId> dirty_nets_;
  std::vector<std::uint8_t> net_dirty_;
  std::vector<std::uint8_t> op_pending_;
  bool coherent_ = false;

  // Event-driven tick: the deduplicated queue of FFs (indices into ffs_) the
  // next tick() visits, and its scratch list of FFs whose Q the edge changes.
  std::vector<std::uint32_t> tick_ffs_;
  std::vector<std::uint8_t> ff_pending_;
  std::vector<std::uint32_t> committed_ffs_;

  std::uint64_t eval_count_ = 0;
  std::uint64_t ops_evaluated_ = 0;
};

extern template class WideSimulator<1>;
extern template class WideSimulator<4>;
extern template class WideSimulator<8>;

}  // namespace ffr::sim
