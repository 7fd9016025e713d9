// Property and differential tests for the incremental checkpointed replay
// subsystem: dirty-set eval_incremental() vs full eval() equivalence on
// random circuits, golden checkpoint record/restore bit-exactness on
// mac_core and pipeline_core (relay_core is covered in test_relay_core.cpp),
// replay-mode equivalence of the batched CampaignEngine against the flat
// reference campaign, cost-accounting invariants, and validation of the new
// CampaignConfig knobs.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "circuits/mac_core.hpp"
#include "circuits/mac_testbench.hpp"
#include "circuits/pipeline_core.hpp"
#include "circuits/random_circuit.hpp"
#include "fault/campaign.hpp"
#include "fault/engine.hpp"
#include "sim/packed_sim.hpp"
#include "sim/runner.hpp"
#include "sim/wide_runner.hpp"
#include "sim/wide_sim.hpp"
#include "util/rng.hpp"

namespace ffr {
namespace {

// ---- dirty-set evaluation vs full evaluation ---------------------------------

TEST(DirtySetEval, MatchesFullEvalOnRandomCircuits) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    circuits::RandomCircuitConfig cc;
    cc.num_inputs = 5;
    cc.num_outputs = 4;
    cc.num_gates = 60 + 30 * static_cast<std::size_t>(seed % 3);
    cc.num_flip_flops = 8 + 4 * static_cast<std::size_t>(seed % 2);
    cc.seed = seed;
    const netlist::Netlist nl = circuits::build_random_circuit(cc);
    sim::PackedSimulator full(nl);
    sim::PackedSimulator incremental(nl);
    util::Rng rng(seed * 77 + 1);
    const auto pis = nl.primary_inputs();
    const auto ffs = nl.flip_flops();
    for (int cycle = 0; cycle < 40; ++cycle) {
      for (const netlist::NetId pi : pis) {
        // Lane-varying words, not broadcasts: the dirty-set comparison is
        // word-level and must survive diverged lanes.
        const sim::Lanes value = rng();
        full.set_input(pi, value);
        incremental.set_input(pi, value);
      }
      if (!ffs.empty() && rng.bernoulli(0.3)) {
        const netlist::CellId cell = ffs[rng.below(ffs.size())];
        const sim::Lanes mask = rng();
        full.inject(cell, mask);
        incremental.inject(cell, mask);
      }
      full.eval();
      incremental.eval_incremental();
      for (netlist::NetId net = 0; net < nl.num_nets(); ++net) {
        ASSERT_EQ(full.value(net), incremental.value(net))
            << "seed " << seed << " cycle " << cycle << " net " << net << " ("
            << nl.net(net).name << ")";
      }
      full.tick();
      incremental.tick();
    }
    // The whole point: the event-driven sweep must not do more gate
    // evaluations than the full sweep.
    EXPECT_LE(incremental.ops_evaluated(), full.ops_evaluated()) << "seed " << seed;
  }
}

TEST(DirtySetEval, QuiescentSweepEvaluatesNothing) {
  const netlist::Netlist nl = circuits::build_random_circuit({});
  sim::PackedSimulator sim(nl);
  sim.eval();
  const std::uint64_t before = sim.ops_evaluated();
  sim.eval_incremental();  // no inputs changed since the full sweep
  EXPECT_EQ(sim.ops_evaluated(), before);
}

TEST(DirtySetEval, RestoreForcesFullResyncSweep) {
  const netlist::Netlist nl = circuits::build_random_circuit({});
  sim::PackedSimulator reference(nl);
  sim::PackedSimulator sim(nl);
  util::Rng rng(99);
  const auto pis = nl.primary_inputs();
  // Walk `sim` into an arbitrary state, then restore `reference`'s flip-flop
  // state into it: the next incremental sweep must fall back to a full eval
  // and converge to reference's net values exactly.
  for (int cycle = 0; cycle < 5; ++cycle) {
    for (const netlist::NetId pi : pis) sim.set_input(pi, rng());
    sim.eval();
    sim.tick();
  }
  std::vector<sim::Lanes> state;
  reference.snapshot_ff_state(state);
  sim.restore_ff_state(state);
  for (const netlist::NetId pi : pis) {
    sim.set_input(pi, reference.value(pi));
  }
  sim.eval_incremental();
  for (netlist::NetId net = 0; net < nl.num_nets(); ++net) {
    ASSERT_EQ(sim.value(net), reference.value(net)) << "net " << net;
  }
}

TEST(DirtySetEval, RestoreRejectsSizeMismatch) {
  const netlist::Netlist nl = circuits::build_random_circuit({});
  sim::PackedSimulator sim(nl);
  const std::vector<sim::Lanes> wrong(sim.num_ffs() + 1, 0);
  EXPECT_THROW(sim.restore_ff_state(wrong), std::invalid_argument);
}

// ---- wide (SIMD lane-block) simulator: same dirty-set contracts ----------------

template <std::size_t W>
sim::LaneBlock<W> random_block(util::Rng& rng) {
  sim::LaneBlock<W> block = sim::LaneBlock<W>::zero();
  for (std::size_t w = 0; w < W; ++w) block.set_word(w, rng());
  return block;
}

/// The full-eval simulator queues every flip-flop for every edge, so it is
/// the all-FF tick reference for the incremental one's event-driven tick.
template <std::size_t W>
void check_wide_dirty_set_matches_full(std::size_t blocks) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    circuits::RandomCircuitConfig cc;
    cc.num_gates = 50 + 25 * static_cast<std::size_t>(seed % 3);
    cc.num_flip_flops = 6 + 3 * static_cast<std::size_t>(seed % 2);
    cc.seed = seed;
    const netlist::Netlist nl = circuits::build_random_circuit(cc);
    sim::WideSimulator<W> full(nl, blocks);
    sim::WideSimulator<W> incremental(nl, blocks);
    util::Rng rng(seed * 55 + 2 + blocks);
    const auto pis = nl.primary_inputs();
    const auto ffs = nl.flip_flops();
    for (int cycle = 0; cycle < 24; ++cycle) {
      for (const netlist::NetId pi : pis) {
        // Per-block inputs, so blocks diverge the way loopbacks make them.
        for (std::size_t b = 0; b < blocks; ++b) {
          const auto value = random_block<W>(rng);
          full.set_input_block(pi, b, value);
          incremental.set_input_block(pi, b, value);
        }
      }
      if (!ffs.empty() && rng.bernoulli(0.3)) {
        const netlist::CellId cell = ffs[rng.below(ffs.size())];
        const auto mask = random_block<W>(rng);
        const std::size_t block = rng.below(blocks);
        full.inject(cell, mask, block);
        incremental.inject(cell, mask, block);
      }
      full.eval();
      incremental.eval_incremental();
      for (netlist::NetId net = 0; net < nl.num_nets(); ++net) {
        for (std::size_t b = 0; b < blocks; ++b) {
          ASSERT_FALSE(differs(full.value(net, b), incremental.value(net, b)))
              << "W=" << W << " blocks " << blocks << " seed " << seed
              << " cycle " << cycle << " net " << net << " block " << b << " ("
              << nl.net(net).name << ")";
        }
      }
      full.tick();
      incremental.tick();
      for (const netlist::CellId ff : ffs) {
        for (std::size_t b = 0; b < blocks; ++b) {
          ASSERT_FALSE(differs(full.ff_state(ff, b), incremental.ff_state(ff, b)))
              << "W=" << W << " blocks " << blocks << " seed " << seed
              << " cycle " << cycle << " ff " << nl.cell(ff).name << " block " << b;
        }
      }
    }
    EXPECT_LE(incremental.ops_evaluated(), full.ops_evaluated())
        << "W=" << W << " blocks " << blocks << " seed " << seed;
  }
}

TEST(WideDirtySetEval, MatchesFullEvalAt64) {
  for (std::size_t blocks = 1; blocks <= 3; ++blocks) {
    check_wide_dirty_set_matches_full<1>(blocks);
  }
}
TEST(WideDirtySetEval, MatchesFullEvalAt256) {
  for (std::size_t blocks = 1; blocks <= 3; ++blocks) {
    check_wide_dirty_set_matches_full<4>(blocks);
  }
}
TEST(WideDirtySetEval, MatchesFullEvalAt512) {
  for (std::size_t blocks = 1; blocks <= 3; ++blocks) {
    check_wide_dirty_set_matches_full<8>(blocks);
  }
}

// Hand-built register patterns for the event-driven tick, each with a known
// answer: a shift chain (D = the previous FF's Q) that must capture pre-edge
// values, an FF fed straight from a primary input, a hold FF (D = its own Q)
// whose injected flip persists, and injected flips overwritten at the next
// edge because D never changed.
TEST(WideEventTick, RegisterPatternsMatchKnownValues) {
  using Sim = sim::WideSimulator<1>;
  using Block = Sim::Block;
  netlist::Netlist nl("tick_patterns");
  const netlist::NetId in = nl.add_primary_input("in");
  // d == kNoNet makes the FF read its own Q.
  const auto add_dff = [&](const std::string& name, netlist::NetId d) {
    const netlist::NetId q = nl.add_net(name + "_q");
    netlist::Cell cell;
    cell.name = name;
    cell.func = netlist::CellFunc::kDff;
    cell.inputs = {d == netlist::kNoNet ? q : d};
    cell.output = q;
    const netlist::CellId id = nl.add_cell(std::move(cell));
    nl.mark_primary_output(q, name);
    return std::pair{id, q};
  };
  const auto [s0, s0_q] = add_dff("s0", in);      // D = primary input
  const auto [s1, s1_q] = add_dff("s1", s0_q);    // shift chain
  const auto [s2, s2_q] = add_dff("s2", s1_q);
  const auto [hold, hold_q] = add_dff("hold", netlist::kNoNet);  // D = own Q
  (void)s2_q;
  (void)hold_q;
  nl.finalize();

  constexpr std::size_t kBlocks = 2;
  Sim sim(nl, kBlocks);
  const Block lane5 = Block::lane_mask(5);
  const auto expect_q = [&](netlist::CellId ff, std::size_t block,
                            const Block& want, const char* when) {
    EXPECT_FALSE(differs(sim.ff_state(ff, block), want))
        << nl.cell(ff).name << " block " << block << " " << when;
  };
  const auto edge = [&] {
    sim.eval_incremental();
    sim.tick();
  };

  // A one shifts down the chain one stage per edge, and each stage still
  // captures its neighbour's pre-edge Q.
  sim.set_input(in, Block::ones());
  edge();
  sim.set_input(in, Block::zero());
  edge();
  expect_q(s0, 0, Block::zero(), "after the pulse passed s0");
  expect_q(s1, 0, Block::ones(), "one edge after the pulse");
  expect_q(s2, 0, Block::zero(), "before the pulse arrives");
  edge();
  expect_q(s1, 1, Block::zero(), "after the pulse passed s1");
  expect_q(s2, 1, Block::ones(), "two edges after the pulse");
  edge();
  expect_q(s2, 0, Block::zero(), "after the pulse left the chain");

  // Injected flips into s0 (D = the unchanged input) and into s1 (D = s0's
  // unchanged Q) are overwritten at the next edge; s0's flipped pre-edge Q
  // moves on into s1 in that lane only.
  sim.inject(s0, lane5, 1);
  sim.inject(s1, lane5, 0);
  expect_q(s0, 1, lane5, "right after the inject");
  edge();
  expect_q(s0, 1, Block::zero(), "one edge after the inject");
  expect_q(s1, 0, Block::zero(), "one edge after the inject");
  expect_q(s1, 1, lane5, "one edge after s0's inject");
  expect_q(s2, 0, lane5, "one edge after s1's inject");
  edge();
  edge();
  for (const netlist::CellId ff : {s0, s1, s2}) {
    for (std::size_t b = 0; b < kBlocks; ++b) {
      expect_q(ff, b, Block::zero(), "once the flips left the chain");
    }
  }

  // The hold FF keeps an injected flip on every later edge, in its block only,
  // and a second flip of the same lane restores it.
  sim.inject(hold, lane5, 1);
  for (int i = 0; i < 3; ++i) edge();
  expect_q(hold, 0, Block::zero(), "in the block not injected");
  expect_q(hold, 1, lane5, "three edges after the inject");
  sim.inject(hold, lane5, 1);
  edge();
  expect_q(hold, 1, Block::zero(), "after the flip was undone");
}

template <std::size_t W>
void check_wide_restore_forces_resync() {
  const netlist::Netlist nl = circuits::build_random_circuit({});
  sim::WideSimulator<W> reference(nl);
  sim::WideSimulator<W> sim(nl);
  util::Rng rng(43 + W);
  const auto pis = nl.primary_inputs();
  const auto ffs = nl.flip_flops();
  // Walk `sim` into a fully diverged per-lane state (checkpoint-restore at
  // width > 64 happens mid-campaign, when every block carries live faults).
  for (int cycle = 0; cycle < 6; ++cycle) {
    for (const netlist::NetId pi : pis) sim.set_input(pi, random_block<W>(rng));
    if (!ffs.empty()) sim.inject(ffs[rng.below(ffs.size())], random_block<W>(rng));
    sim.eval_incremental();
    sim.tick();
  }
  // Regression guard: leave nets dirtied but NOT yet swept when the restore
  // lands. A resync that trusted the stale dirty set would only re-evaluate
  // those cones and skip every block the restore invalidated underneath.
  for (const netlist::NetId pi : pis) sim.set_input(pi, random_block<W>(rng));
  std::vector<sim::LaneBlock<W>> state;
  reference.snapshot_ff_state(state);
  sim.restore_ff_state(state);
  for (const netlist::NetId pi : pis) sim.set_input(pi, reference.value(pi));
  sim.eval_incremental();
  for (netlist::NetId net = 0; net < nl.num_nets(); ++net) {
    ASSERT_FALSE(differs(sim.value(net), reference.value(net)))
        << "W=" << W << " net " << net << " (" << nl.net(net).name << ")";
  }
  // The resync sweep queues every flip-flop, so the first edge after the
  // restore captures the same state as the reference's.
  sim.tick();
  reference.tick();
  for (const netlist::CellId ff : ffs) {
    ASSERT_FALSE(differs(sim.ff_state(ff), reference.ff_state(ff)))
        << "W=" << W << " ff " << nl.cell(ff).name;
  }
}

TEST(WideDirtySetEval, RestoreForcesFullResyncAt256) {
  check_wide_restore_forces_resync<4>();
}
TEST(WideDirtySetEval, RestoreForcesFullResyncAt512) {
  check_wide_restore_forces_resync<8>();
}

TEST(WideDirtySetEval, RestoreRejectsSizeMismatch) {
  const netlist::Netlist nl = circuits::build_random_circuit({});
  sim::WideSimulator<8> sim(nl);
  const std::vector<sim::LaneBlock<8>> wrong(sim.num_ffs() + 1,
                                             sim::LaneBlock<8>::zero());
  EXPECT_THROW(sim.restore_ff_state(wrong), std::invalid_argument);
}

// ---- checkpoint record / restore ---------------------------------------------

void expect_same_run(const sim::RunResult& full, const sim::RunResult& resumed) {
  ASSERT_EQ(full.lane_frames.size(), resumed.lane_frames.size());
  for (std::size_t lane = 0; lane < full.lane_frames.size(); ++lane) {
    const sim::FrameList& a = full.lane_frames[lane];
    const sim::FrameList& b = resumed.lane_frames[lane];
    ASSERT_EQ(a.size(), b.size()) << "lane " << lane;
    for (std::size_t f = 0; f < a.size(); ++f) {
      EXPECT_EQ(a[f].bytes, b[f].bytes) << "lane " << lane << " frame " << f;
      EXPECT_EQ(a[f].err, b[f].err) << "lane " << lane << " frame " << f;
      // Stricter than Frame::operator== — a resumed replay reproduces even
      // the delivery cycles.
      EXPECT_EQ(a[f].end_cycle, b[f].end_cycle)
          << "lane " << lane << " frame " << f;
    }
  }
}

void expect_same_ff_state(const netlist::Netlist& nl, const sim::ReplayRunner& a,
                          const sim::ReplayRunner& b) {
  for (const netlist::CellId ff : nl.flip_flops()) {
    ASSERT_EQ(a.simulator().ff_state(ff), b.simulator().ff_state(ff))
        << "ff " << nl.cell(ff).name;
  }
}

/// For every recorded checkpoint: an injection schedule that lands right at,
/// right after, and far beyond the snapshot cycle must replay bit-exactly
/// (frames of all 64 lanes, final flip-flop state) whether it starts from
/// reset or from the checkpoint — with and without dirty-set evaluation.
void check_checkpoint_property(const netlist::Netlist& nl, const sim::Testbench& tb,
                               std::size_t interval) {
  const sim::CompiledStimulus stimulus(nl, tb);
  sim::GoldenCheckpoints ckpts;
  ckpts.interval = interval;
  sim::ReplayRunner recorder(stimulus);
  sim::RunOptions record_options;
  record_options.record = &ckpts;
  (void)recorder.run({}, record_options);
  ASSERT_EQ(ckpts.snapshots.size(), (stimulus.num_cycles() + interval - 1) / interval);
  for (std::size_t k = 0; k < ckpts.snapshots.size(); ++k) {
    ASSERT_EQ(ckpts.snapshots[k].cycle, k * interval);
  }

  const auto ffs = nl.flip_flops();
  sim::ReplayRunner full_runner(stimulus);
  sim::ReplayRunner resumed_runner(stimulus);
  util::Rng rng(interval * 1234567ULL + 9);
  for (std::size_t k = 0; k < ckpts.snapshots.size(); ++k) {
    const std::size_t base = ckpts.snapshots[k].cycle;
    std::vector<sim::InjectionEvent> events;
    sim::InjectionEvent first;
    first.ff_cell = ffs[rng.below(ffs.size())];
    first.cycle = static_cast<std::uint32_t>(base);
    first.lane_mask = sim::Lanes{1} << (k % sim::kNumLanes);
    events.push_back(first);
    if (base + interval / 2 + 1 < stimulus.num_cycles()) {
      sim::InjectionEvent second;
      second.ff_cell = ffs[rng.below(ffs.size())];
      second.cycle = static_cast<std::uint32_t>(base + interval / 2 + 1);
      second.lane_mask = sim::Lanes{1} << ((k + 17) % sim::kNumLanes);
      events.push_back(second);
    }
    const sim::RunResult full = full_runner.run(events);
    EXPECT_EQ(full.start_cycle, 0u);
    for (const bool incremental : {false, true}) {
      sim::RunOptions options;
      options.resume = &ckpts;
      options.incremental_eval = incremental;
      const sim::RunResult resumed = resumed_runner.run(events, options);
      SCOPED_TRACE("checkpoint " + std::to_string(k) + " incremental " +
                   std::to_string(incremental));
      EXPECT_EQ(resumed.start_cycle, base);
      EXPECT_EQ(resumed.cycles_simulated, stimulus.num_cycles() - base);
      expect_same_run(full, resumed);
      expect_same_ff_state(nl, full_runner, resumed_runner);
    }
  }
}

TEST(CheckpointRestore, ReproducesFullRunOnMac) {
  circuits::MacConfig mc;
  mc.tx_depth_log2 = 3;
  mc.rx_depth_log2 = 3;
  const circuits::MacCore mac = circuits::build_mac_core(mc);
  circuits::MacTestbenchConfig tbc;
  tbc.num_frames = 2;
  tbc.min_payload = 8;
  tbc.max_payload = 12;
  tbc.seed = 7;
  const circuits::MacTestbench bench = circuits::build_mac_testbench(mac, tbc);
  check_checkpoint_property(mac.netlist, bench.tb, 13);
}

TEST(CheckpointRestore, ReproducesFullRunOnPipeline) {
  const circuits::PipelineCore core = circuits::build_pipeline_core();
  const circuits::PipelineTestbench bench =
      circuits::build_pipeline_testbench(core, 48);
  check_checkpoint_property(core.netlist, bench.tb, 9);
}

TEST(CheckpointRestore, RunnerContractsRejectMisuse) {
  const circuits::PipelineCore core = circuits::build_pipeline_core();
  const circuits::PipelineTestbench bench =
      circuits::build_pipeline_testbench(core, 24);
  const sim::CompiledStimulus stimulus(core.netlist, bench.tb);
  sim::ReplayRunner runner(stimulus);
  sim::GoldenCheckpoints ckpts;

  sim::RunOptions bad_interval;
  bad_interval.record = &ckpts;
  ckpts.interval = 0;
  EXPECT_THROW((void)runner.run({}, bad_interval), std::invalid_argument);
  ckpts.interval = stimulus.num_cycles() + 1;
  EXPECT_THROW((void)runner.run({}, bad_interval), std::invalid_argument);

  ckpts.interval = 8;
  sim::InjectionEvent ev;
  ev.ff_cell = core.netlist.flip_flops()[0];
  ev.cycle = static_cast<std::uint32_t>(bench.tb.inject_begin);
  ev.lane_mask = 1;
  const sim::InjectionEvent events[] = {ev};
  sim::RunOptions record_with_faults;
  record_with_faults.record = &ckpts;
  EXPECT_THROW((void)runner.run(events, record_with_faults), std::invalid_argument);

  (void)runner.run({}, sim::RunOptions{.record = &ckpts});
  sim::RunOptions resume_with_activity;
  resume_with_activity.resume = &ckpts;
  resume_with_activity.trace_activity = true;
  EXPECT_THROW((void)runner.run(events, resume_with_activity),
               std::invalid_argument);

  // Empty checkpoints cannot serve a resume.
  const sim::GoldenCheckpoints empty;
  sim::RunOptions resume_empty;
  resume_empty.resume = &empty;
  EXPECT_THROW((void)runner.run(events, resume_empty), std::logic_error);
}

// ---- bit-packed checkpoints: one shared representation, two consumers --------

/// Restoring a bit-packed snapshot must behave identically whether the
/// consumer is the scalar 64-lane ReplayRunner or a multi-block wide runner:
/// the packed golden bit is splat across every lane of every block, so the
/// same checkpoint set drives both paths to bit-identical frames and state.
TEST(PackedCheckpoints, RestoreFromPackedEqualsRestoreFromWide) {
  circuits::MacConfig mc;
  mc.tx_depth_log2 = 3;
  mc.rx_depth_log2 = 3;
  const circuits::MacCore mac = circuits::build_mac_core(mc);
  circuits::MacTestbenchConfig tbc;
  tbc.num_frames = 2;
  tbc.min_payload = 8;
  tbc.max_payload = 12;
  tbc.seed = 11;
  const circuits::MacTestbench bench = circuits::build_mac_testbench(mac, tbc);
  const sim::CompiledStimulus stimulus(mac.netlist, bench.tb);

  sim::GoldenCheckpoints ckpts;
  ckpts.interval = 10;
  sim::ReplayRunner recorder(stimulus);
  sim::RunOptions record_options;
  record_options.record = &ckpts;
  (void)recorder.run({}, record_options);

  constexpr std::size_t kW = 4;
  constexpr std::size_t kBlocks = 2;
  const auto ffs = mac.netlist.flip_flops();
  sim::ReplayRunner scalar(stimulus);
  sim::WideReplayRunner<kW> wide(stimulus, kBlocks);
  ASSERT_EQ(wide.lanes(), kBlocks * kW * 64);

  // The same three injections in both runners; the wide lanes deliberately
  // span both blocks (lane 0, a lane in the middle of block 0, a lane in
  // block 1) so every splat path is exercised.
  const std::size_t cycles[] = {bench.tb.inject_begin + 1,
                                bench.tb.inject_begin + 11,
                                bench.tb.inject_end - 1};
  const std::size_t scalar_lanes[] = {0, 13, 40};
  const std::size_t wide_lanes[] = {0, kW * 64 - 7, kW * 64 + 129};
  std::vector<sim::InjectionEvent> scalar_events;
  std::vector<sim::LaneInjection> wide_events;
  for (std::size_t i = 0; i < 3; ++i) {
    sim::InjectionEvent sev;
    sev.ff_cell = ffs[(i * 37 + 5) % ffs.size()];
    sev.cycle = static_cast<std::uint32_t>(cycles[i]);
    sev.lane_mask = sim::Lanes{1} << scalar_lanes[i];
    scalar_events.push_back(sev);
    sim::LaneInjection wev;
    wev.ff_cell = sev.ff_cell;
    wev.cycle = sev.cycle;
    wev.lane = static_cast<std::uint32_t>(wide_lanes[i]);
    wide_events.push_back(wev);
  }

  for (const bool incremental : {false, true}) {
    SCOPED_TRACE(std::string("incremental ") + std::to_string(incremental));
    sim::RunOptions scalar_options;
    scalar_options.resume = &ckpts;
    scalar_options.incremental_eval = incremental;
    const sim::RunResult from_scalar = scalar.run(scalar_events, scalar_options);
    sim::WideRunOptions wide_options;
    wide_options.resume = &ckpts;
    wide_options.incremental_eval = incremental;
    const sim::RunResult from_wide = wide.run(wide_events, wide_options);

    EXPECT_EQ(from_scalar.start_cycle, from_wide.start_cycle);
    ASSERT_EQ(from_wide.lane_frames.size(), wide.lanes());
    for (std::size_t i = 0; i < 3; ++i) {
      const sim::FrameList& a = from_scalar.lane_frames[scalar_lanes[i]];
      const sim::FrameList& b = from_wide.lane_frames[wide_lanes[i]];
      ASSERT_EQ(a.size(), b.size()) << "injection " << i;
      for (std::size_t f = 0; f < a.size(); ++f) {
        EXPECT_EQ(a[f].bytes, b[f].bytes) << "injection " << i << " frame " << f;
        EXPECT_EQ(a[f].err, b[f].err) << "injection " << i << " frame " << f;
        EXPECT_EQ(a[f].end_cycle, b[f].end_cycle)
            << "injection " << i << " frame " << f;
      }
    }
    // Final flip-flop state, per corresponding lane.
    for (const netlist::CellId ff : ffs) {
      const sim::Lanes scalar_state = scalar.simulator().ff_state(ff);
      for (std::size_t i = 0; i < 3; ++i) {
        const std::size_t g = wide_lanes[i];
        const std::uint64_t wide_word =
            wide.simulator().ff_state(ff, g / (kW * 64)).word((g / 64) % kW);
        ASSERT_EQ((scalar_state >> scalar_lanes[i]) & 1u,
                  (wide_word >> (g % 64)) & 1u)
            << "ff " << mac.netlist.cell(ff).name << " injection " << i;
      }
    }
  }
}

TEST(PackedCheckpoints, PackedMemoryIsWellBelowBroadcastWords) {
  const circuits::PipelineCore core = circuits::build_pipeline_core();
  const circuits::PipelineTestbench bench =
      circuits::build_pipeline_testbench(core, 64);
  const sim::CompiledStimulus stimulus(core.netlist, bench.tb);
  sim::GoldenCheckpoints ckpts;
  ckpts.interval = 8;
  sim::ReplayRunner recorder(stimulus);
  sim::RunOptions options;
  options.record = &ckpts;
  (void)recorder.run({}, options);

  // One bit per FF (+ loopback) per snapshot, rounded up to whole words.
  EXPECT_EQ(ckpts.state_bits.size(),
            ckpts.snapshots.size() * ckpts.state_stride());
  EXPECT_EQ(ckpts.state_stride(),
            (ckpts.num_ffs + ckpts.num_loopbacks + 63) / 64);
  // The packed representation must undercut the broadcast-word layout by a
  // wide margin; the exact >= 32x bound is asserted at paper scale in
  // test_relay_core.cpp.
  EXPECT_LT(ckpts.memory_bytes(), ckpts.broadcast_word_bytes());
  // Golden frames are stored once, as a prefix-shared stream, not copied
  // per snapshot.
  for (const auto& snap : ckpts.snapshots) {
    EXPECT_LE(snap.frames_completed, ckpts.golden_frames.size());
  }
}

TEST(PackedCheckpoints, WideRunnerContractsRejectMisuse) {
  const circuits::PipelineCore core = circuits::build_pipeline_core();
  const circuits::PipelineTestbench bench =
      circuits::build_pipeline_testbench(core, 24);
  const sim::CompiledStimulus stimulus(core.netlist, bench.tb);

  // Block-count bounds are enforced at construction.
  EXPECT_THROW(sim::WideReplayRunner<4>(stimulus, 0), std::invalid_argument);
  EXPECT_THROW(sim::WideReplayRunner<4>(stimulus, sim::kMaxLaneBlocksPerPass + 1),
               std::invalid_argument);

  sim::WideReplayRunner<4> runner(stimulus, 2);
  sim::GoldenCheckpoints ckpts;

  sim::WideRunOptions bad_interval;
  bad_interval.record = &ckpts;
  ckpts.interval = 0;
  EXPECT_THROW((void)runner.run({}, bad_interval), std::invalid_argument);
  ckpts.interval = stimulus.num_cycles() + 1;
  EXPECT_THROW((void)runner.run({}, bad_interval), std::invalid_argument);

  ckpts.interval = 8;
  sim::LaneInjection ev;
  ev.ff_cell = core.netlist.flip_flops()[0];
  ev.cycle = static_cast<std::uint32_t>(bench.tb.inject_begin);
  ev.lane = 0;
  const sim::LaneInjection events[] = {ev};
  sim::WideRunOptions record_with_faults;
  record_with_faults.record = &ckpts;
  EXPECT_THROW((void)runner.run(events, record_with_faults),
               std::invalid_argument);

  // A lane beyond blocks * W * 64 is out of range.
  sim::LaneInjection out_of_range = ev;
  out_of_range.lane = static_cast<std::uint32_t>(runner.lanes());
  const sim::LaneInjection bad_events[] = {out_of_range};
  EXPECT_THROW((void)runner.run(bad_events, {}), std::invalid_argument);

  (void)runner.run({}, sim::WideRunOptions{.record = &ckpts});
  sim::WideRunOptions resume_with_activity;
  resume_with_activity.resume = &ckpts;
  resume_with_activity.trace_activity = true;
  EXPECT_THROW((void)runner.run(events, resume_with_activity),
               std::invalid_argument);

  const sim::GoldenCheckpoints empty;
  sim::WideRunOptions resume_empty;
  resume_empty.resume = &empty;
  EXPECT_THROW((void)runner.run(events, resume_empty), std::logic_error);
}

// ---- engine-level differential across replay modes ---------------------------

void expect_bit_identical(const fault::CampaignResult& a,
                          const fault::CampaignResult& b) {
  ASSERT_EQ(a.per_ff.size(), b.per_ff.size());
  for (std::size_t i = 0; i < a.per_ff.size(); ++i) {
    EXPECT_EQ(a.per_ff[i].ff_index, b.per_ff[i].ff_index) << "ff " << i;
    EXPECT_EQ(a.per_ff[i].classes.counts, b.per_ff[i].classes.counts)
        << "ff " << i << " (" << a.per_ff[i].name << ")";
  }
  const auto fdr_a = a.fdr_vector();
  const auto fdr_b = b.fdr_vector();
  ASSERT_EQ(fdr_a.size(), fdr_b.size());
  for (std::size_t i = 0; i < fdr_a.size(); ++i) {
    EXPECT_EQ(fdr_a[i], fdr_b[i]) << "ff " << i;
  }
  EXPECT_EQ(a.total_injections, b.total_injections);
}

struct MacIncrementalFixture : public ::testing::Test {
  static void SetUpTestSuite() {
    circuits::MacConfig mc;
    mc.tx_depth_log2 = 3;
    mc.rx_depth_log2 = 3;
    mac = new circuits::MacCore(circuits::build_mac_core(mc));
    circuits::MacTestbenchConfig tbc;
    tbc.num_frames = 3;
    tbc.min_payload = 8;
    tbc.max_payload = 16;
    tbc.seed = 5;
    bench = new circuits::MacTestbench(circuits::build_mac_testbench(*mac, tbc));
    engine = new fault::CampaignEngine(mac->netlist, bench->tb);
  }
  static void TearDownTestSuite() {
    delete engine;
    engine = nullptr;
    delete bench;
    bench = nullptr;
    delete mac;
    mac = nullptr;
  }
  static circuits::MacCore* mac;
  static circuits::MacTestbench* bench;
  static fault::CampaignEngine* engine;
};

circuits::MacCore* MacIncrementalFixture::mac = nullptr;
circuits::MacTestbench* MacIncrementalFixture::bench = nullptr;
fault::CampaignEngine* MacIncrementalFixture::engine = nullptr;

TEST_F(MacIncrementalFixture, AllModesMatchFlatAcrossIntervalsAndThreads) {
  fault::CampaignConfig base;
  base.injections_per_ff = 24;
  for (std::size_t i = 0; i < mac->netlist.num_flip_flops(); i += 11) {
    base.ff_subset.push_back(i);
  }
  const fault::CampaignResult flat =
      fault::run_campaign(mac->netlist, bench->tb, engine->golden(), base);
  const std::size_t num_cycles = bench->tb.stimulus.num_cycles();
  for (const fault::ReplayMode mode :
       {fault::ReplayMode::kFull, fault::ReplayMode::kCheckpoint,
        fault::ReplayMode::kIncremental}) {
    for (const std::size_t interval :
         {std::size_t{1}, std::size_t{7}, std::size_t{16}, num_cycles}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
        fault::CampaignConfig config = base;
        config.replay_mode = mode;
        config.checkpoint_interval = interval;
        config.num_threads = threads;
        SCOPED_TRACE(std::string("mode=") + fault::to_string(mode) +
                     " interval=" + std::to_string(interval) +
                     " threads=" + std::to_string(threads));
        const fault::CampaignResult result = engine->run(config);
        expect_bit_identical(flat, result);
      }
    }
  }
}

TEST_F(MacIncrementalFixture, CheckpointedReplaySimulatesFewerCyclesAndOps) {
  fault::CampaignConfig config;
  config.injections_per_ff = 32;
  for (std::size_t i = 0; i < mac->netlist.num_flip_flops(); i += 7) {
    config.ff_subset.push_back(i);
  }
  config.checkpoint_interval = 8;

  config.replay_mode = fault::ReplayMode::kFull;
  const fault::CampaignResult full = engine->run(config);
  config.replay_mode = fault::ReplayMode::kCheckpoint;
  const fault::CampaignResult checkpointed = engine->run(config);
  config.replay_mode = fault::ReplayMode::kIncremental;
  const fault::CampaignResult incremental = engine->run(config);

  expect_bit_identical(full, checkpointed);
  expect_bit_identical(full, incremental);

  // Full mode replays every pass from reset.
  EXPECT_EQ(full.cycles_simulated,
            full.total_sim_passes * bench->tb.stimulus.num_cycles());
  EXPECT_EQ(full.checkpoint_restores, 0u);
  // The injection window opens after cycle 0, so sorted lane packing must
  // let most passes skip a prefix.
  EXPECT_LT(checkpointed.cycles_simulated, full.cycles_simulated);
  EXPECT_GT(checkpointed.checkpoint_restores, 0u);
  EXPECT_EQ(incremental.cycles_simulated, checkpointed.cycles_simulated);
  // Dirty-set evaluation shrinks gate evaluations further still.
  EXPECT_LT(incremental.ops_evaluated, checkpointed.ops_evaluated);
}

TEST_F(MacIncrementalFixture, KnobValidation) {
  fault::CampaignConfig config;
  config.injections_per_ff = 4;
  config.ff_subset = {0};
  config.checkpoint_interval = 0;
  EXPECT_THROW((void)engine->run(config), std::invalid_argument);
  config.checkpoint_interval = bench->tb.stimulus.num_cycles() + 1;
  EXPECT_THROW((void)engine->run(config), std::invalid_argument);
  // Validated in every mode — a kFull config must not silently accept knobs
  // that would break a later switch to incremental replay.
  config.replay_mode = fault::ReplayMode::kFull;
  EXPECT_THROW((void)engine->run(config), std::invalid_argument);
  EXPECT_THROW((void)engine->checkpoints(0), std::invalid_argument);
  EXPECT_THROW((void)engine->checkpoints(bench->tb.stimulus.num_cycles() + 1),
               std::invalid_argument);
}

TEST_F(MacIncrementalFixture, CheckpointCacheIsSharedPerInterval) {
  const auto a = engine->checkpoints(10);
  const auto b = engine->checkpoints(10);
  EXPECT_EQ(a.get(), b.get());
  const auto c = engine->checkpoints(20);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(c->snapshots.size(),
            (bench->tb.stimulus.num_cycles() + 19) / 20);
}

TEST(PipelineIncremental, DefaultModeMatchesFlat) {
  const circuits::PipelineCore core = circuits::build_pipeline_core();
  const circuits::PipelineTestbench bench =
      circuits::build_pipeline_testbench(core);
  fault::CampaignEngine engine(core.netlist, bench.tb);
  fault::CampaignConfig config;
  config.injections_per_ff = 32;
  ASSERT_EQ(config.replay_mode, fault::ReplayMode::kIncremental);
  const fault::CampaignResult flat =
      fault::run_campaign(core.netlist, bench.tb, engine.golden(), config);
  const fault::CampaignResult incremental = engine.run(config);
  expect_bit_identical(flat, incremental);
  EXPECT_LT(incremental.cycles_simulated, flat.cycles_simulated);
  EXPECT_LT(incremental.ops_evaluated, flat.ops_evaluated);
}

}  // namespace
}  // namespace ffr
