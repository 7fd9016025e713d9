#include "sim/wide_sim.hpp"

#include <algorithm>
#include <stdexcept>

namespace ffr::sim {

using netlist::CellFunc;

namespace {

/// Block-wide gate kernel: the same truth tables as the scalar compute_op in
/// packed_sim.cpp, expressed over LaneBlock operators so one evaluation
/// advances W * 64 lanes per block. The operand pointers are formed once per
/// op and the block loop runs inside each case: `blocks` independent SIMD
/// ops on contiguous storage, which keeps the vector units busy once the
/// register width itself is exhausted. Kept internal-linkage so each
/// translation unit compiles it at its own vector width.
template <std::size_t W>
void eval_op_blocks(CellFunc func, const netlist::NetId* in,
                    const LaneBlock<W>* v, std::size_t blocks,
                    LaneBlock<W>* out) {
  using B = LaneBlock<W>;
  const auto arg = [&](std::size_t k) {
    return v + static_cast<std::size_t>(in[k]) * blocks;
  };
  switch (func) {
    case CellFunc::kConst0:
      for (std::size_t b = 0; b < blocks; ++b) out[b] = B::zero();
      return;
    case CellFunc::kConst1:
      for (std::size_t b = 0; b < blocks; ++b) out[b] = B::ones();
      return;
    case CellFunc::kBuf: {
      const B* a = arg(0);
      for (std::size_t b = 0; b < blocks; ++b) out[b] = a[b];
      return;
    }
    case CellFunc::kInv: {
      const B* a = arg(0);
      for (std::size_t b = 0; b < blocks; ++b) out[b] = ~a[b];
      return;
    }
    case CellFunc::kAnd2: {
      const B* a = arg(0);
      const B* c = arg(1);
      for (std::size_t b = 0; b < blocks; ++b) out[b] = a[b] & c[b];
      return;
    }
    case CellFunc::kAnd3: {
      const B* a = arg(0);
      const B* c = arg(1);
      const B* d = arg(2);
      for (std::size_t b = 0; b < blocks; ++b) out[b] = a[b] & c[b] & d[b];
      return;
    }
    case CellFunc::kAnd4: {
      const B* a = arg(0);
      const B* c = arg(1);
      const B* d = arg(2);
      const B* e = arg(3);
      for (std::size_t b = 0; b < blocks; ++b) {
        out[b] = a[b] & c[b] & d[b] & e[b];
      }
      return;
    }
    case CellFunc::kNand2: {
      const B* a = arg(0);
      const B* c = arg(1);
      for (std::size_t b = 0; b < blocks; ++b) out[b] = ~(a[b] & c[b]);
      return;
    }
    case CellFunc::kNand3: {
      const B* a = arg(0);
      const B* c = arg(1);
      const B* d = arg(2);
      for (std::size_t b = 0; b < blocks; ++b) out[b] = ~(a[b] & c[b] & d[b]);
      return;
    }
    case CellFunc::kNand4: {
      const B* a = arg(0);
      const B* c = arg(1);
      const B* d = arg(2);
      const B* e = arg(3);
      for (std::size_t b = 0; b < blocks; ++b) {
        out[b] = ~(a[b] & c[b] & d[b] & e[b]);
      }
      return;
    }
    case CellFunc::kOr2: {
      const B* a = arg(0);
      const B* c = arg(1);
      for (std::size_t b = 0; b < blocks; ++b) out[b] = a[b] | c[b];
      return;
    }
    case CellFunc::kOr3: {
      const B* a = arg(0);
      const B* c = arg(1);
      const B* d = arg(2);
      for (std::size_t b = 0; b < blocks; ++b) out[b] = a[b] | c[b] | d[b];
      return;
    }
    case CellFunc::kOr4: {
      const B* a = arg(0);
      const B* c = arg(1);
      const B* d = arg(2);
      const B* e = arg(3);
      for (std::size_t b = 0; b < blocks; ++b) {
        out[b] = a[b] | c[b] | d[b] | e[b];
      }
      return;
    }
    case CellFunc::kNor2: {
      const B* a = arg(0);
      const B* c = arg(1);
      for (std::size_t b = 0; b < blocks; ++b) out[b] = ~(a[b] | c[b]);
      return;
    }
    case CellFunc::kNor3: {
      const B* a = arg(0);
      const B* c = arg(1);
      const B* d = arg(2);
      for (std::size_t b = 0; b < blocks; ++b) out[b] = ~(a[b] | c[b] | d[b]);
      return;
    }
    case CellFunc::kNor4: {
      const B* a = arg(0);
      const B* c = arg(1);
      const B* d = arg(2);
      const B* e = arg(3);
      for (std::size_t b = 0; b < blocks; ++b) {
        out[b] = ~(a[b] | c[b] | d[b] | e[b]);
      }
      return;
    }
    case CellFunc::kXor2: {
      const B* a = arg(0);
      const B* c = arg(1);
      for (std::size_t b = 0; b < blocks; ++b) out[b] = a[b] ^ c[b];
      return;
    }
    case CellFunc::kXnor2: {
      const B* a = arg(0);
      const B* c = arg(1);
      for (std::size_t b = 0; b < blocks; ++b) out[b] = ~(a[b] ^ c[b]);
      return;
    }
    case CellFunc::kMux2: {
      const B* lo = arg(0);
      const B* hi = arg(1);
      const B* sel = arg(2);
      for (std::size_t b = 0; b < blocks; ++b) {
        out[b] = (sel[b] & hi[b]) | (~sel[b] & lo[b]);
      }
      return;
    }
    case CellFunc::kAoi21: {
      const B* a = arg(0);
      const B* c = arg(1);
      const B* d = arg(2);
      for (std::size_t b = 0; b < blocks; ++b) out[b] = ~((a[b] & c[b]) | d[b]);
      return;
    }
    case CellFunc::kOai21: {
      const B* a = arg(0);
      const B* c = arg(1);
      const B* d = arg(2);
      for (std::size_t b = 0; b < blocks; ++b) out[b] = ~((a[b] | c[b]) & d[b]);
      return;
    }
    case CellFunc::kDff:
      throw std::logic_error("DFF in combinational op list");
  }
  throw std::logic_error("eval_op_blocks: unknown cell function");
}

}  // namespace

template <std::size_t W>
WideSimulator<W>::WideSimulator(const netlist::Netlist& nl, std::size_t blocks)
    : nl_(&nl), blocks_(blocks) {
  if (!nl.finalized()) {
    throw std::invalid_argument("WideSimulator: netlist not finalized");
  }
  if (blocks == 0 || blocks > kMaxLaneBlocksPerPass) {
    throw std::invalid_argument("WideSimulator: blocks out of range");
  }
  values_.assign(nl.num_nets() * blocks_, Block::zero());
  ops_.reserve(nl.topo_order().size());
  for (const netlist::CellId id : nl.topo_order()) {
    const netlist::Cell& cell = nl.cell(id);
    Op op;
    op.func = cell.func;
    op.num_inputs = static_cast<std::uint8_t>(cell.inputs.size());
    for (std::size_t i = 0; i < cell.inputs.size(); ++i) op.in[i] = cell.inputs[i];
    op.out = cell.output;
    ops_.push_back(op);
  }
  ff_slot_.assign(nl.num_cells(), ~std::uint32_t{0});
  for (const netlist::CellId id : nl.flip_flops()) {
    const netlist::Cell& cell = nl.cell(id);
    ff_slot_[id] = static_cast<std::uint32_t>(ffs_.size());
    ffs_.push_back(FfSlot{cell.inputs[0], cell.output,
                          cell.init_value ? Block::ones() : Block::zero()});
  }
  next_state_.assign(ffs_.size() * blocks_, Block::zero());

  // Net -> readers in CSR form (counting sort by input net): the ops
  // reading the net, then the flip-flops reading it as D, tagged with
  // kFfReader so one scan schedules both.
  fanout_begin_.assign(nl.num_nets() + 1, 0);
  for (const Op& op : ops_) {
    for (std::size_t i = 0; i < op.num_inputs; ++i) ++fanout_begin_[op.in[i] + 1];
  }
  for (const FfSlot& ff : ffs_) ++fanout_begin_[ff.d + 1];
  for (std::size_t n = 1; n < fanout_begin_.size(); ++n) {
    fanout_begin_[n] += fanout_begin_[n - 1];
  }
  fanout_ops_.resize(fanout_begin_.back());
  std::vector<std::uint32_t> cursor(fanout_begin_.begin(), fanout_begin_.end() - 1);
  for (std::uint32_t idx = 0; idx < ops_.size(); ++idx) {
    const Op& op = ops_[idx];
    for (std::size_t i = 0; i < op.num_inputs; ++i) {
      fanout_ops_[cursor[op.in[i]]++] = idx;
    }
  }
  for (std::uint32_t i = 0; i < ffs_.size(); ++i) {
    fanout_ops_[cursor[ffs_[i].d]++] = i | kFfReader;
  }
  op_level_.resize(ops_.size());
  std::vector<std::uint32_t> net_level(nl.num_nets(), 0);
  std::uint32_t max_level = 0;
  for (std::uint32_t idx = 0; idx < ops_.size(); ++idx) {
    const Op& op = ops_[idx];
    std::uint32_t level = 0;
    for (std::size_t i = 0; i < op.num_inputs; ++i) {
      level = std::max(level, net_level[op.in[i]]);
    }
    op_level_[idx] = level;
    net_level[op.out] = level + 1;
    max_level = std::max(max_level, level);
  }
  level_buckets_.resize(ops_.empty() ? 0 : max_level + 1);

  net_dirty_.assign(nl.num_nets(), 0);
  op_pending_.assign(ops_.size(), 0);
  ff_pending_.assign(ffs_.size(), 0);
  dirty_nets_.reserve(64);
  tick_ffs_.reserve(ffs_.size());
  committed_ffs_.reserve(ffs_.size());

  reset();
}

template <std::size_t W>
void WideSimulator<W>::reset() {
  std::fill(values_.begin(), values_.end(), Block::zero());
  for (const FfSlot& ff : ffs_) {
    for (std::size_t b = 0; b < blocks_; ++b) values_[ff.q * blocks_ + b] = ff.init;
  }
  eval();
}

template <std::size_t W>
void WideSimulator<W>::set_input(netlist::NetId net, const Block& value) {
  if (net >= net_dirty_.size() || nl_->net(net).pi_index < 0) {
    throw std::invalid_argument("set_input: not a primary input net");
  }
  Block* slots = values_.data() + static_cast<std::size_t>(net) * blocks_;
  bool changed = false;
  for (std::size_t b = 0; b < blocks_; ++b) {
    if (differs(slots[b], value)) {
      slots[b] = value;
      changed = true;
    }
  }
  if (changed) mark_dirty(net);
}

template <std::size_t W>
void WideSimulator<W>::set_input_block(netlist::NetId net, std::size_t block,
                                       const Block& value) {
  if (net >= net_dirty_.size() || nl_->net(net).pi_index < 0) {
    throw std::invalid_argument("set_input_block: not a primary input net");
  }
  if (block >= blocks_) {
    throw std::invalid_argument("set_input_block: block out of range");
  }
  Block& slot = values_[static_cast<std::size_t>(net) * blocks_ + block];
  if (differs(slot, value)) {
    slot = value;
    mark_dirty(net);
  }
}

template <std::size_t W>
void WideSimulator<W>::mark_dirty(netlist::NetId net) {
  if (!net_dirty_[net]) {
    net_dirty_[net] = 1;
    dirty_nets_.push_back(net);
  }
}

template <std::size_t W>
void WideSimulator<W>::schedule_fanout(netlist::NetId net) {
  for (std::uint32_t f = fanout_begin_[net]; f < fanout_begin_[net + 1]; ++f) {
    const std::uint32_t idx = fanout_ops_[f];
    if (idx & kFfReader) {
      schedule_ff(idx & ~kFfReader);
    } else if (!op_pending_[idx]) {
      op_pending_[idx] = 1;
      level_buckets_[op_level_[idx]].push_back(idx);
    }
  }
}

template <std::size_t W>
void WideSimulator<W>::schedule_ff(std::uint32_t slot) {
  if (!ff_pending_[slot]) {
    ff_pending_[slot] = 1;
    tick_ffs_.push_back(slot);
  }
}

template <std::size_t W>
void WideSimulator<W>::schedule_all_ffs() {
  tick_ffs_.resize(ffs_.size());
  for (std::uint32_t i = 0; i < ffs_.size(); ++i) tick_ffs_[i] = i;
  std::fill(ff_pending_.begin(), ff_pending_.end(), std::uint8_t{1});
}

template <std::size_t W>
void WideSimulator<W>::clear_dirty() {
  for (const netlist::NetId net : dirty_nets_) net_dirty_[net] = 0;
  dirty_nets_.clear();
}

template <std::size_t W>
void WideSimulator<W>::eval() {
  ++eval_count_;
  ops_evaluated_ += ops_.size();
  Block* const v = values_.data();
  for (const Op& op : ops_) {
    eval_op_blocks<W>(op.func, op.in, v, blocks_,
                      v + static_cast<std::size_t>(op.out) * blocks_);
  }
  clear_dirty();
  // A full sweep records no per-net changes, so any D may have moved.
  schedule_all_ffs();
  coherent_ = true;
}

template <std::size_t W>
void WideSimulator<W>::eval_incremental() {
  if (!coherent_) {
    eval();
    return;
  }
  ++eval_count_;
  Block* const v = values_.data();
  for (const netlist::NetId net : dirty_nets_) {
    net_dirty_[net] = 0;
    schedule_fanout(net);
  }
  dirty_nets_.clear();
  std::uint64_t evaluated = 0;
  Block scratch[kMaxLaneBlocksPerPass];
  // An evaluated op only ever schedules deeper levels, so one in-order sweep
  // over the buckets settles everything.
  for (std::vector<std::uint32_t>& bucket : level_buckets_) {
    for (std::size_t b = 0; b < bucket.size(); ++b) {
      const std::uint32_t idx = bucket[b];
      op_pending_[idx] = 0;
      const Op& op = ops_[idx];
      eval_op_blocks<W>(op.func, op.in, v, blocks_, scratch);
      ++evaluated;
      Block* out = v + static_cast<std::size_t>(op.out) * blocks_;
      bool changed = false;
      for (std::size_t blk = 0; blk < blocks_; ++blk) {
        if (differs(scratch[blk], out[blk])) {
          out[blk] = scratch[blk];
          changed = true;
        }
      }
      if (changed) schedule_fanout(op.out);
    }
    bucket.clear();
  }
  ops_evaluated_ += evaluated;
}

template <std::size_t W>
void WideSimulator<W>::tick() {
  Block* const v = values_.data();
  // Gather: every queued FF whose Q differs from its D copies the pre-edge
  // D, so an FF-to-FF chain (D = another FF's Q) never sees a new Q.
  committed_ffs_.clear();
  for (const std::uint32_t i : tick_ffs_) {
    ff_pending_[i] = 0;
    const Block* d = v + static_cast<std::size_t>(ffs_[i].d) * blocks_;
    const Block* q = v + static_cast<std::size_t>(ffs_[i].q) * blocks_;
    bool changed = false;
    for (std::size_t b = 0; b < blocks_; ++b) changed |= differs(d[b], q[b]);
    if (changed) {
      Block* next = next_state_.data() + committed_ffs_.size() * blocks_;
      for (std::size_t b = 0; b < blocks_; ++b) next[b] = d[b];
      committed_ffs_.push_back(i);
    }
  }
  tick_ffs_.clear();
  // Commit: the new Qs mark their nets dirty; the next sweep drains them
  // and queues the FFs reading them as D.
  for (std::size_t k = 0; k < committed_ffs_.size(); ++k) {
    const netlist::NetId q_net = ffs_[committed_ffs_[k]].q;
    Block* q = v + static_cast<std::size_t>(q_net) * blocks_;
    const Block* next = next_state_.data() + k * blocks_;
    for (std::size_t b = 0; b < blocks_; ++b) q[b] = next[b];
    mark_dirty(q_net);
  }
}

template <std::size_t W>
void WideSimulator<W>::inject(netlist::CellId ff_cell, const Block& mask,
                              std::size_t block) {
  const std::uint32_t slot = ff_slot_.at(ff_cell);
  if (slot == ~std::uint32_t{0}) {
    throw std::invalid_argument("inject: cell is not a flip-flop");
  }
  if (block >= blocks_) {
    throw std::invalid_argument("inject: block out of range");
  }
  if (any(mask)) {
    values_[static_cast<std::size_t>(ffs_[slot].q) * blocks_ + block] ^= mask;
    mark_dirty(ffs_[slot].q);
    schedule_ff(slot);  // Q != D now: the next edge must overwrite (or keep) it
  }
}

template <std::size_t W>
void WideSimulator<W>::snapshot_ff_state(std::vector<Block>& out) const {
  out.resize(ffs_.size() * blocks_);
  for (std::size_t i = 0; i < ffs_.size(); ++i) {
    for (std::size_t b = 0; b < blocks_; ++b) {
      out[i * blocks_ + b] = values_[static_cast<std::size_t>(ffs_[i].q) * blocks_ + b];
    }
  }
}

template <std::size_t W>
void WideSimulator<W>::restore_ff_state(std::span<const Block> state) {
  if (state.size() != ffs_.size() * blocks_) {
    throw std::invalid_argument("restore_ff_state: state size mismatch");
  }
  for (std::size_t i = 0; i < ffs_.size(); ++i) {
    for (std::size_t b = 0; b < blocks_; ++b) {
      values_[static_cast<std::size_t>(ffs_[i].q) * blocks_ + b] = state[i * blocks_ + b];
    }
  }
  // Combinational nets are now stale relative to the restored registers;
  // force the next incremental sweep to run in full. Note this covers nets
  // whose blocks were dirtied before the restore too — the stale dirty set
  // is superseded by the full resync sweep, never consulted to skip work.
  coherent_ = false;
}

template <std::size_t W>
const typename WideSimulator<W>::Block& WideSimulator<W>::ff_state(
    netlist::CellId ff_cell, std::size_t block) const {
  const std::uint32_t slot = ff_slot_.at(ff_cell);
  if (slot == ~std::uint32_t{0}) {
    throw std::invalid_argument("ff_state: cell is not a flip-flop");
  }
  return values_[static_cast<std::size_t>(ffs_[slot].q) * blocks_ + block];
}

template class WideSimulator<1>;
template class WideSimulator<4>;
template class WideSimulator<8>;

}  // namespace ffr::sim
