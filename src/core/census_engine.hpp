// CensusEngine: effective-step sampling over a census of state-pair
// multiplicities.
//
// Under the uniform random scheduler every one of the N = n(n-1)/2
// unordered node pairs is equally likely each step, so a step is effective
// with probability p = W/N, where W is the number of pairs whose
// (state_a, state_b, edge) triple has an effective transition. The paper's
// running times are Theta(n^2 log n) .. Theta(n^4) *total* steps while the
// number of effective interactions is typically near-linear -- the naive
// engine spends almost all of its time executing encounters that change
// nothing.
//
// This engine never executes those. It maintains
//   * per-state alive-node lists (who is in state q),
//   * per-state-pair active-edge buckets over a flat edge store (one
//     packed record per edge: endpoints, bucket id, and back-pointer
//     positions; swap-remove everywhere; a free list recycles slots),
//   * per-node incidence lists of edge slots, kept only for nodes in a
//     non-terminal state (below), and
//   * the protocol-derived list of *effective classes*: the (a, b, c)
//     triples, a <= b, for which Protocol::ineffective is false,
// giving every class multiplicity -- and hence W -- in O(1).
//
// A node's incidence list exists to rebucket its edges when its state
// changes. A *terminal* state is one no effective rule moves a node out of
// (terminal_states(): both coin branches and the same-state swap counted;
// Global-Star's p, Cycle-Cover's q2), so a node in one never needs its
// list: inserting an edge skips a terminal endpoint (its position is
// kNoPos), erasing one touches only non-terminal endpoints' lists, and a
// node entering a terminal state drops its list in the same sweep that
// rebuckets its edges. Only an outside mutation (a fault) can move a node
// out of a terminal state, and that costs the usual one rebuild. The one
// lookup that needs an edge's slot without having drawn it -- the dense
// regime's, which samples the model's pair law directly -- scans a
// non-terminal endpoint's list, or, when both endpoints are terminal, the
// pair's bucket (O(bucket); counted in Stats::slot_scans). Global-Star at
// n = 2^14 peaks at ~11.6 n edges, nearly all between two p nodes, so the
// lists it no longer keeps are most of the engine's random memory
// traffic.
//
// One stepping loop serves every scheduler, through the weight-model seam
// (SchedulerWeightModel, core/scheduler.hpp): a scheduler whose single-step
// pair law is expressible as static per-pair weights exports a model, and
// the uniform random scheduler runs against an engine-owned
// UniformPairWeightModel -- the degenerate model with every weight equal.
// With m = W the effective multiplicity, w_hat the model's weight bound
// and W_s = sum of all pair weights (dead pairs included -- the naive
// scheduler wastes steps on them), a candidate effective step occurs with
// p_hat = m * w_hat / W_s. Each step draws the geometrically-distributed
// count of ineffective steps the naive engine would have burned (success
// probability p_hat), advances the clock past them, draws a class by
// multiplicity and a concrete pair within it, and accepts the pair with
// probability w(u,v)/w_hat: P(step executes (u,v)) = p_hat * (1/m) *
// (w/w_hat) = w/W_s, the scheduler's law exactly. A rejected candidate is
// one of the naive run's ineffective steps, already accounted by the
// consumed clock tick. Uniform weights hit w == w_hat and draw no
// acceptance coin, so for the uniform scheduler p_hat = W/N and every
// candidate executes: both the step index of every effective interaction
// and the choice of interaction are *exactly* the naive distribution (the
// CI KS gate enforces this), at O(1) expected cost per effective
// interaction instead of O(1/p).
//
// Each step picks one of three exact regimes from the current
// configuration alone:
//   * listed draw, when m * w_min < w_hat (w_min the model's weight
//     floor): the engine lists the m effective pairs with their exact
//     weights (edge classes from their buckets, non-edge classes by
//     walking the node product and skipping pairs with an edge), sums them
//     into M, skips Geometric(M / W_s) steps and picks a pair ~ w with one
//     uniform draw. Thinning would expect w_hat * m / M >= m candidates
//     per step there, so the listing never costs more; a product walk
//     that would pass w_hat / w_min pairs gives up before consuming
//     randomness. Uniform-law models have w_min == w_hat and never list.
//   * thinning, as above, when p_hat < 1;
//   * dense, when p_hat >= 1: thinning is invalid and the engine samples
//     the model's own next()-equivalent law per step; that only arises in
//     weight-concentrated near-converged configurations (or, uniformly,
//     when every pair is effective, where per-step execution is exactly
//     as cheap).
// Every regime gives P(next executed step is t steps on and executes
// (u, v)) = (1 - E/W_s)^(t-1) * w(u,v)/W_s, E the weighted effective
// mass, and none carries state from one step to the next, so switching
// regimes between steps leaves the trajectory's law unchanged.
//
// Class selection is one Fenwick (binary indexed) tree over the class
// weights: a transition re-reads only the classes containing a touched
// state, each changed weight moves O(log |C|) tree nodes, and a draw takes
// exactly one uniform integer below W and descends the tree, so P(class
// i) = w_i / W exactly, in integers, against the current weights.
//
// The tables mirror one World::version(): the engine records the version
// after every rebuild and after each of its own encounters, so any
// mutation it did not make itself -- a custom initializer, a fault event
// fired through mutable_world(), a test holding mutable_world() across
// steps -- leaves the world ahead of the tables, and the next sampled step
// pays one full rebuild. Faults are engine events, not per-step hooks: the
// fault driver (faults/fault_session.hpp) runs the engine to the step of
// the next event with run / run_until_stable, fires it, and sampling
// resumes exactly, since the geometric skip is memoryless.
//
// The run drivers are Simulator's: this engine supplies only their
// primitive, advance() (the sampler above), and an O(1) quiescence check.
// A scheduler that exports *no* weight model (e.g. an exact script, which
// must execute step-for-step) has no census law, so the constructor
// rejects it; run it on the naive engine.
#pragma once

#include "core/simulator.hpp"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace netcons {

/// One entry of the protocol's effectiveness table over unordered state
/// pairs: the encounter (a, b, c), a <= b, has an effective transition.
struct EffectiveClass {
  StateId a = 0;
  StateId b = 0;
  bool c = false;
};

/// The (a, b, c) triples, a <= b, for which `protocol.ineffective` is
/// false -- the census engine's sampling support. Exposed for the
/// table-agreement tests (tests/core/test_engine.cpp).
[[nodiscard]] std::vector<EffectiveClass> effective_state_classes(const Protocol& protocol);

/// The states no effective rule moves a node out of, ascending: every
/// defined effective entry, both coin branches and, for same-state
/// encounters, the symmetry-breaking swap of the outcome states leave a
/// node in such a state where it is. Exposed for the table tests
/// (tests/core/test_census_scale.cpp).
[[nodiscard]] std::vector<StateId> terminal_states(const Protocol& protocol);

class CensusEngine final : public Simulator {
 public:
  /// Internals counters surfaced by publish_metrics (single-threaded: an
  /// engine lives on one worker thread; the registry does the cross-thread
  /// merging). Exposed for the unit tests.
  struct Stats {
    std::uint64_t full_rebuilds = 0;      ///< Full census-table rebuilds.
    std::uint64_t geometric_skips = 0;    ///< Ineffective steps skipped wholesale.
    std::uint64_t effective_samples = 0;  ///< Census-sampled effective encounters.
    std::uint64_t weighted_rejects = 0;   ///< Thinning candidates rejected.
    std::uint64_t weighted_dense_steps = 0;  ///< Per-step draws in the dense regime.
    /// Effective steps drawn from a listing of the effective pairs.
    std::uint64_t weighted_listed_steps = 0;
    /// Dense-regime edge-slot lookups that scanned a bucket because both
    /// endpoints were in terminal states (and so kept no incidence list).
    std::uint64_t slot_scans = 0;
  };

  /// The uniform random scheduler (the default, also recognized when
  /// passed explicitly) runs against an engine-owned uniform weight model;
  /// a non-uniform scheduler exporting a SchedulerWeightModel runs against
  /// its own (see the header comment). Throws std::invalid_argument for a
  /// scheduler exporting none.
  CensusEngine(Protocol protocol, int n, std::uint64_t seed,
               std::unique_ptr<Scheduler> scheduler = nullptr);
  // weight_model_ may point into this object.
  CensusEngine(const CensusEngine&) = delete;
  CensusEngine& operator=(const CensusEngine&) = delete;

  [[nodiscard]] const char* engine_name() const noexcept override { return "census"; }

  bool step() override;

  /// O(1) while the census tables mirror the world's version; otherwise
  /// the inherited O(n^2) scan (a const method cannot rebuild them).
  [[nodiscard]] bool is_quiescent() const override {
    if (synced_version_ == world().version()) return total_weight_ == 0;
    return Simulator::is_quiescent();
  }

  /// The model the scheduler exported, nullptr for the uniform random
  /// scheduler (whose model the engine owns).
  [[nodiscard]] const SchedulerWeightModel* weight_model() const noexcept {
    return uniform_model_ ? nullptr : weight_model_;
  }

  /// Total multiplicity W of effective pairs in the current configuration
  /// (syncs the tables first). W == 0 iff the configuration is
  /// quiescent -- the O(1) form of Engine::is_quiescent.
  [[nodiscard]] std::uint64_t effective_pair_weight();

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Publishes the inherited engine.* counters plus the census.* family
  /// (full_rebuilds / geometric_skips / effective_samples, and the
  /// census.weighted_* counters when the scheduler exported its own weight
  /// model) and the
  /// census.bucket_occupancy histogram (active-edge bucket sizes over the
  /// current configuration; sampled 1-in-8 publishes to keep per-trial
  /// cost inside the telemetry overhead budget).
  void publish_metrics(telemetry::Registry& registry) override;

  // --- Test hooks (deterministic, but not part of the engine contract) ---

  /// One class draw against the current weights (the Fenwick-tree
  /// descent); returns an index into debug_classes(), or its size when the
  /// configuration is quiescent.
  [[nodiscard]] std::size_t debug_draw_class();
  /// One listed-regime draw (see advance) against the current
  /// configuration, without executing it; nullopt when the regime does not
  /// apply (uniform-law model, m * w_min >= w_hat, an oversized product
  /// walk, or quiescence).
  [[nodiscard]] std::optional<std::pair<int, int>> debug_listed_draw();
  /// The effective classes, after syncing the tables.
  [[nodiscard]] const std::vector<EffectiveClass>& debug_classes();
  /// Current per-class weights (same order as debug_classes()).
  [[nodiscard]] std::vector<std::uint64_t> debug_class_weights();
  /// Canonical text rendering of the census tables (sorted node lists,
  /// sorted bucket edge lists, class weights) -- identical strings iff the
  /// tables describe the same configuration, regardless of the swap-remove
  /// history that produced them.
  [[nodiscard]] std::string debug_table_snapshot();
  /// Discard the tables and rebuild from the world (for equivalence tests).
  void debug_force_full_rebuild();
  /// The incidence invariant, after syncing the tables: every alive node
  /// in a non-terminal state lists exactly its incident edge slots, every
  /// node in a terminal state lists none, and each slot's pos_u / pos_v
  /// names its entry in its endpoint's list (kNoPos for a terminal
  /// endpoint). Returns the first violation found, empty if none.
  [[nodiscard]] std::string debug_incidence_violation();

 private:
  struct BucketEdge {
    int u = 0;
    int v = 0;
    /// The pair's edge slot; kNoSlot for a non-edge (an edge-free class
    /// draw has already proved the pair has no edge).
    std::uint32_t slot = 0xffffffffu;
  };

  /// An effective pair of the listed regime, with the running sum of the
  /// listed pair weights up to and including it.
  struct ListedPair {
    BucketEdge pair;
    double cumulative = 0.0;
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// EdgeSlot::pos_u / pos_v of an endpoint in a terminal state.
  static constexpr std::uint32_t kNoPos = 0xffffffffu;

  // --- table lifecycle ---
  /// Rebuild the tables from the world, ending with fresh weights.
  void rebuild_tables();
  /// Rebuild unless the tables already mirror the world's version.
  void sync_tables();
  /// Recompute every class weight from the tables.
  void refresh_weights();

  // --- SoA edge store ---
  [[nodiscard]] std::uint32_t bucket_key(StateId a, StateId b) const noexcept;
  [[nodiscard]] std::uint64_t class_multiplicity(const EffectiveClass& cls) const noexcept;
  /// Store the edge {u, v} in its bucket and in the lists of its
  /// endpoints whose current states are non-terminal.
  void insert_edge(int u, int v);
  void erase_edge(std::uint32_t slot);
  /// Move an edge to the bucket of its endpoints' *current* states after a
  /// state change (adjacency positions are untouched).
  void rebucket_edge(std::uint32_t slot);
  /// Rebucket every edge in u's list (after u changed state) except
  /// `skip`, and drop the list if u's new state is terminal.
  void sweep_incident_edges(int u, std::uint32_t skip);
  /// The slot of edge {u, v}, kNoSlot if absent: a scan of the shorter
  /// list of a non-terminal endpoint, or of the pair's bucket when both
  /// endpoints are terminal (counted in Stats::slot_scans). Only the
  /// dense regime, which draws a pair without its slot, needs it.
  [[nodiscard]] std::uint32_t find_edge_slot(int u, int v);
  void node_list_move(int u, StateId from, StateId to);

  // --- class weights ---
  /// Recompute one class's weight and fold the change into the running
  /// total and the Fenwick tree.
  void touch_class(std::uint32_t ci);
  void touch_state_classes(StateId q);
  /// The class whose weight interval [prefix, prefix + w_i) holds r < W.
  [[nodiscard]] std::size_t class_at(std::uint64_t r) const noexcept;
  /// Draw ~ current weights, exactly. Requires total_weight_ > 0.
  [[nodiscard]] std::size_t draw_class();

  // --- stepping ---
  /// Pick a concrete unordered pair uniformly within the class.
  [[nodiscard]] BucketEdge sample_pair(const EffectiveClass& cls);
  /// Advance the clock past Geometric(p) ineffective steps plus the
  /// candidate step itself; false (clock at `budget`) when the candidate
  /// falls beyond it.
  bool advance_to_candidate(double p, std::uint64_t budget);
  /// Fill listed_ with every effective pair and its model weight; false,
  /// with no randomness consumed, when that would walk more than
  /// list_cap_ pairs. The listed regime requires m < list_cap_ first.
  bool list_effective_pairs();
  /// Pick a listed pair with probability w / listed_mass_ (one uniform()).
  [[nodiscard]] const BucketEdge& draw_listed_pair();
  /// One census-sampled step against weight_model_, never advancing the
  /// clock past `budget`: a listed draw when few effective pairs are left,
  /// else thinning when p_hat < 1, else per-step model sampling.
  /// Memoryless: a kBudgetExhausted tail is redrawn by the next call;
  /// kQuiescent when W == 0.
  StepOutcome advance(std::uint64_t budget) override;
  [[nodiscard]] bool reports_quiescence() const noexcept override { return true; }
  /// O(1) after a sync: W == 0 (never the O(n^2) scan).
  [[nodiscard]] bool quiescent_now() override { return effective_pair_weight() == 0; }
  /// Apply the encounter and incrementally repair tables and weights.
  /// `slot` is the pair's edge slot, kNoSlot when the pair has no edge;
  /// every caller already knows which, so no adjacency scan happens here.
  void execute_and_update(int u, int v, std::uint32_t slot);

  /// The uniform random scheduler's model, owned here.
  std::optional<UniformPairWeightModel> uniform_model_;
  /// The active model: &*uniform_model_, or one the scheduler exported
  /// (non-owning; the scheduler outlives every step). Never null.
  const SchedulerWeightModel* weight_model_ = nullptr;
  /// The World::version() the tables mirror; kNeverSynced forces the next
  /// sync to rebuild.
  static constexpr std::uint64_t kNeverSynced = ~std::uint64_t{0};
  std::uint64_t synced_version_ = kNeverSynced;

  Stats stats_;

  std::vector<EffectiveClass> classes_;
  /// classes_by_state_[q] = indices of classes whose (a, b) contains q; a
  /// transition touching states S can only change weights of classes with
  /// a state in S, so these lists drive the weight updates.
  std::vector<std::vector<std::uint32_t>> classes_by_state_;

  std::vector<std::uint64_t> weight_;
  std::uint64_t total_weight_ = 0;
  /// Fenwick tree over weight_, |C| + 1 entries: fenwick_[i] (1-based)
  /// sums the weights of classes (i - lowbit(i), i]; fenwick_[0] is unused.
  std::vector<std::uint64_t> fenwick_;

  /// w_hat / w_min of the active model: the listed regime runs while
  /// m < list_cap_ (m * w_min < w_hat) and walks at most list_cap_ pairs.
  double list_cap_ = 0.0;
  /// The listed regime's scratch: the effective pairs with running weight
  /// sums, and their total M.
  std::vector<ListedPair> listed_;
  double listed_mass_ = 0.0;

  std::vector<std::vector<std::int32_t>> nodes_by_state_;
  std::vector<std::int32_t> node_pos_;
  /// terminal_[q] != 0 iff q is in terminal_states(protocol()).
  std::vector<char> terminal_;

  // Flat edge store: one packed 24-byte record per active edge (endpoints,
  // bucket id, and the three back-pointers that make every removal a
  // swap-remove). Packing matters: edge operations read several attributes
  // of a *random* slot together, so one record is one cache line where
  // parallel per-attribute arrays would be six.
  struct EdgeSlot {
    std::int32_t u = 0;  ///< Smaller endpoint.
    std::int32_t v = 0;  ///< Larger endpoint.
    std::uint32_t bucket = 0;
    std::uint32_t bucket_pos = 0;
    /// Positions in u's / v's incidence list; kNoPos for an endpoint in a
    /// terminal state, which keeps no list.
    std::uint32_t pos_u = 0;
    std::uint32_t pos_v = 0;
  };
  std::vector<EdgeSlot> edges_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::vector<std::uint32_t>> buckets_;  ///< Slot ids per state-pair key.

  // Per-node incident-slot lists, for nodes in non-terminal states only
  // (a terminal node's list is empty; see the header comment). Hybrid
  // layout: the first kInlineAdj entries of node u's list live in the flat
  // adj_inline_ array (one cache line, no pointer chase -- the paper's
  // protocols keep degrees tiny) and only entries past that spill into
  // adj_over_[u], released when u turns terminal. Positions are contiguous
  // across the two.
  static constexpr std::uint32_t kInlineAdj = 4;
  std::vector<std::uint32_t> adj_inline_;  ///< kInlineAdj entries per node.
  std::vector<std::uint32_t> adj_len_;
  std::vector<std::vector<std::uint32_t>> adj_over_;

  [[nodiscard]] std::uint32_t adj_at(int u, std::uint32_t pos) const noexcept {
    return pos < kInlineAdj
               ? adj_inline_[static_cast<std::size_t>(u) * kInlineAdj + pos]
               : adj_over_[static_cast<std::size_t>(u)][pos - kInlineAdj];
  }
  void adj_put(int u, std::uint32_t pos, std::uint32_t slot) noexcept {
    if (pos < kInlineAdj) {
      adj_inline_[static_cast<std::size_t>(u) * kInlineAdj + pos] = slot;
    } else {
      adj_over_[static_cast<std::size_t>(u)][pos - kInlineAdj] = slot;
    }
  }
  /// Append `slot` to u's list; returns its position.
  std::uint32_t adj_push(int u, std::uint32_t slot) {
    const std::uint32_t pos = adj_len_[static_cast<std::size_t>(u)]++;
    if (pos < kInlineAdj) {
      adj_inline_[static_cast<std::size_t>(u) * kInlineAdj + pos] = slot;
    } else {
      adj_over_[static_cast<std::size_t>(u)].push_back(slot);
    }
    return pos;
  }
  /// Swap-remove position `pos` from u's list, fixing the moved slot's
  /// back-pointer through `edges_`.
  void adj_swap_remove(int u, std::uint32_t pos) noexcept {
    const std::uint32_t last = --adj_len_[static_cast<std::size_t>(u)];
    if (pos != last) {
      const std::uint32_t moved = adj_at(u, last);
      adj_put(u, pos, moved);
      if (edges_[moved].u == u) {
        edges_[moved].pos_u = pos;
      } else {
        edges_[moved].pos_v = pos;
      }
    }
    if (last >= kInlineAdj) adj_over_[static_cast<std::size_t>(u)].pop_back();
  }
};

}  // namespace netcons
