#include "analytic/fast.hpp"

#include <algorithm>
#include <bit>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "analytic/collapse.hpp"
#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/pool.hpp"
#include "support/simd.hpp"

namespace ces::analytic {
namespace {

// One implicit BCAT node: its level, the contiguous segment of the level's
// id buffer holding its subsequence of the trace, and the distinct count of
// its parent (the trace's unique count for the root) — one of the three
// inputs of the scan cost model.
struct Frame {
  std::uint32_t level;
  std::size_t begin;
  std::size_t end;
  std::size_t parent_distinct;
};

// Distance tallies for a contiguous band of levels [base, base + hist.size()).
// Pool chunk 0 (the calling thread) tallies every level with base 0; every
// other chunk tallies the levels it can reach (>= 1: the root always runs on
// chunk 0) into a private instance that is merged afterwards.
struct LevelTallies {
  std::uint32_t base = 0;
  std::vector<std::vector<std::uint64_t>> hist;  // hist[level - base][distance]
  std::vector<std::uint64_t> counted;            // distances >= 1 tallied
  std::uint64_t nodes = 0;                       // node scans performed
  std::uint64_t refs = 0;                        // references scanned
  std::uint64_t mtf_refs = 0;                    // ... by the MTF scan
  std::uint64_t fenwick_refs = 0;                // ... by Bennett-Kruskal
};

// Per-id state of the Bennett-Kruskal scan: the epoch of the node that last
// saw the id and its mark's slot in that node's window. One 8-byte record,
// so a sighting touches one cache line.
struct IdMark {
  std::uint32_t epoch = 0;
  std::uint32_t slot = 0;
};

// Mutable per-lane scan state; lane c serves pool chunk c (lane 0 is the
// calling thread, which also scans the root). Everything is sized in Setup()
// and only reused afterwards. No lane touches another lane's state.
struct LaneScratch {
  std::vector<Frame> frames;              // explicit DFS stack
  std::vector<std::uint32_t> mtf;         // move-to-front stack
  std::vector<std::uint64_t> bits;        // window marks, 64 slots a word
  std::vector<std::uint32_t> counts;      // count tree over the words
  std::vector<std::uint32_t> slot_ids;    // id placed in each window slot
  std::vector<IdMark> marks;              // per id; empty if unused
  std::uint32_t epoch = 0;                // last epoch this lane stamped
};

// Scan cost model (docs/ALGORITHM.md has the measurements). A node's
// distinct count — and with it the depth of its move-to-front stack — is
// bounded by D = min(caps_[level], parent distinct, node length). MTF costs
// up to about len * D / 2 stack steps, but only as deep as reuse actually
// reaches; the windowed Bennett-Kruskal scan costs about len * c, nearly
// flat in D (one per-id record, one popcount and a short fixed walk per
// reference). Both are linear in len, so the choice is a threshold on D.
// Uniform reuse breaks even below D = 16; locality keeps MTF walks short
// and moves the break-even to D = 67..133 on the big_synth trace. The
// threshold sits at the locality break-even, since real traces have it.
constexpr std::size_t kFenwickMinDepth = 128;

// Target number of subtrees per worker at the cut level. Larger values cut
// the tree deeper, into more and smaller tasks (docs/PARALLEL.md).
constexpr std::uint64_t kOverpartition = 4;

// The root's entries: the stripped ids themselves, or their tandem-repeat
// collapse (analytic/collapse.hpp), whose entry i stands for weights[i]
// references.
struct RootEntries {
  const std::uint32_t* ids;
  const std::uint32_t* weights;  // null: every entry has weight 1
  std::size_t size;
};

// kWeighted selects the instantiation over a collapsed root: every tally
// adds its entry's weight, and Split permutes a weight lane beside the id
// and address lanes. The unweighted instantiation is the per-reference
// traversal, instruction for instruction.
template <bool kWeighted>
class FusedTraversal {
 public:
  FusedTraversal(const trace::StrippedTrace& stripped, RootEntries root,
                 std::uint32_t max_index_bits,
                 const FusedPreludeOptions& options)
      : stripped_(stripped),
        unique_(stripped.unique),
        root_ids_(root.ids),
        root_weights_(root.weights),
        max_bits_(max_index_bits),
        options_(options),
        kernels_(support::simd::ActiveKernels()),
        root_{0, 0, root.size, stripped.unique_count()} {}

  std::vector<cache::StackProfile> Run() {
    std::vector<cache::StackProfile> profiles(max_bits_ + 1);
    for (std::uint32_t level = 0; level <= max_bits_; ++level) {
      profiles[level].index_bits = level;
      profiles[level].cold = stripped_.unique_count();
      profiles[level].hist.resize(1, 0);
    }
    if (root_.end == 0) {
      if (options_.after_setup) options_.after_setup();
      return profiles;
    }

    Setup();
    if (options_.after_setup) options_.after_setup();
    // --- no heap allocation below this line (tests/fused_alloc_test.cpp) ---

    if (cut_ == 0) {
      Traverse(root_, lanes_[0], main_);
    } else {
      // The top of the tree runs as node tasks (RunTasks): the root is split
      // here and its children queued; every node above the cut queues its
      // own children once scanned and split, and each level-cut node runs
      // to the leaves as one task. Chunk 0 scans the root first; no task
      // waits for that scan.
      QueueChildren(root_, root_.parent_distinct);
      options_.pool->ParallelFor(
          lanes_.size(), [this](std::size_t chunk) { RunTasks(chunk); });
      // Every chunk but 0 tallied into a private partial. The tallies are
      // integer sums, so the totals equal the serial traversal's exactly
      // whichever chunk scanned which node.
      for (const LevelTallies& t : chunk_tallies_) {
        for (std::uint32_t level = t.base; level <= max_bits_; ++level) {
          const auto& partial = t.hist[level - t.base];
          auto& total = main_.hist[level];
          for (std::size_t d = 0; d < partial.size(); ++d) {
            total[d] += partial[d];
          }
          main_.counted[level] += t.counted[level - t.base];
        }
        main_.nodes += t.nodes;
        main_.refs += t.refs;
        main_.mtf_refs += t.mtf_refs;
        main_.fenwick_refs += t.fenwick_refs;
      }
    }

    // Distance-0 bucket: every non-cold occurrence not tallied above hits at
    // any associativity (distance zero in its row, or the row was pruned).
    // Trimming to the last non-empty distance reproduces the canonical hist
    // sizes of the per-depth baseline, so profiles compare equal across
    // engines, the per-depth oracle, and jobs values.
    const std::uint64_t warm_total = stripped_.warm_count();
    for (std::uint32_t level = 0; level <= max_bits_; ++level) {
      CES_CHECK(main_.counted[level] <= warm_total);
      std::vector<std::uint64_t>& hist = main_.hist[level];
      std::size_t size = 1;
      for (std::size_t d = hist.size(); d-- > 1;) {
        if (hist[d] != 0) {
          size = d + 1;
          break;
        }
      }
      hist.resize(size);
      hist[0] = warm_total - main_.counted[level];
      profiles[level].hist = std::move(hist);
    }

    if (options_.metrics != nullptr) {
      // Guarded so a null registry costs no name-string construction — the
      // allocation test runs the whole of Run() under its counter.
      // Entries the root scans: the collapsed length, or N uncollapsed.
      options_.metrics->Add("explore.collapsed_refs", root_.end);
      options_.metrics->Add("explore.fused_nodes", main_.nodes);
      options_.metrics->Add("explore.fused_refs", main_.refs);
      // The scan choice reads no pool-dependent input, so the split is
      // jobs-invariant like the totals it sums to.
      options_.metrics->Add("explore.scan_mtf_refs", main_.mtf_refs);
      options_.metrics->Add("explore.scan_fenwick_refs", main_.fenwick_refs);
      // The cut is a function of the pool size, so it lives with the
      // volatile gauges — never in the deterministic counter surface CI
      // diffs.
      options_.metrics->SetGauge("explore.cut_level", cut_);
      // Which kernel table ran (support::simd::Level). Host- and
      // environment-dependent, hence a gauge too; the results it produces
      // are byte-identical either way.
      options_.metrics->SetGauge(
          "explore.simd_kernel",
          static_cast<std::uint64_t>(kernels_.level));
    }
    return profiles;
  }

 private:
  // Upper bound on any node's distinct count at `level`: a node there holds
  // the occurrences of the unique lines agreeing on the low `level` address
  // bits, so it cannot see more lines than the fullest residue class holds.
  // Used to pre-size every histogram and scan buffer exactly once. Sorted
  // by bit-reversed address, every residue class of every level is one run
  // of lines, so this costs O(N' log N' + N' * levels), not O(2^max_bits).
  std::vector<std::size_t> MaxDistinctPerLevel() const {
    std::vector<std::uint32_t> lines = unique_;
    std::sort(lines.begin(), lines.end(), [](std::uint32_t a, std::uint32_t b) {
      // a < b iff b holds the lowest bit in which the two differ.
      const std::uint32_t differ = a ^ b;
      return (b & differ & (0u - differ)) != 0;
    });
    std::vector<std::size_t> caps(max_bits_ + 1, 0);
    std::vector<std::size_t> start(max_bits_ + 1, 0);  // of the current run
    for (std::size_t i = 1; i <= lines.size(); ++i) {
      // Line i opens a new run at every level above the low bits it shares
      // with line i - 1; past the last line, every run closes.
      const auto from = static_cast<std::uint32_t>(
          i == lines.size() ? 0
                            : std::countr_zero(lines[i] ^ lines[i - 1]) + 1);
      for (std::uint32_t level = from; level <= max_bits_; ++level) {
        caps[level] = std::max(caps[level], i - start[level]);
        start[level] = i;
      }
    }
    return caps;
  }

  bool UseFenwick(const Frame& node) const {
    const std::size_t depth = std::min(
        {caps_[node.level], node.parent_distinct, node.end - node.begin});
    return depth >= kFenwickMinDepth;
  }

  // Window of a node's Bennett-Kruskal scan: at least twice its distinct
  // bound, so a renumbering always frees at least half of it — or at least
  // the node's length, so it never fills. Whole 64-slot words, a power of
  // two of them.
  std::size_t WindowSize(std::uint32_t level, std::size_t len) const {
    return std::max<std::size_t>(
        64, std::bit_ceil(std::min(2 * caps_[level], len)));
  }

  // Scratch for a lane whose nodes start at `level` or deeper. caps_ does
  // not grow with the level, so the shallowest level sizes everything: the
  // MTF stack only ever serves nodes the model sends to it (distinct <
  // kFenwickMinDepth), the window and per-id records only nodes it sends to
  // Bennett-Kruskal. The records cost 8 * N' bytes per such lane.
  void SizeLane(LaneScratch& lane, std::uint32_t level) {
    lane.frames.reserve(2 * (max_bits_ + 2));
    lane.mtf.reserve(std::min(caps_[level], kFenwickMinDepth));
    if (caps_[level] >= kFenwickMinDepth) {
      const std::size_t window = WindowSize(level, root_.end);
      CES_CHECK(window <= (std::size_t{1} << 32));  // slots are 32-bit
      lane.bits.assign(window / 64, 0);
      lane.counts.assign(2 * window / 64, 0);
      lane.slot_ids.assign(window, 0);
      lane.marks.assign(stripped_.unique_count(), IdMark{});
    }
  }

  void Setup() {
    const std::size_t n = root_.end;
    const unsigned jobs = options_.pool == nullptr ? 1 : options_.pool->jobs();
    if (jobs > 1 && max_bits_ > 0) {
      const std::uint64_t want = std::uint64_t{jobs} * kOverpartition;
      while ((std::uint64_t{1} << cut_) < want && cut_ < max_bits_) ++cut_;
    }

    caps_ = MaxDistinctPerLevel();
    // Ping-pong id buffers: level L >= 1 lives in ids_[L & 1]; the root
    // reads its entries where they are, and nothing ever overwrites them.
    // Every element is written by a partition before any scan reads it, so
    // the buffers start uninitialised. The weight lane, when there is one,
    // follows the same rule.
    ids_[0] = std::make_unique_for_overwrite<std::uint32_t[]>(n);
    ids_[1] = std::make_unique_for_overwrite<std::uint32_t[]>(n);
    if constexpr (kWeighted) {
      weights_[0] = std::make_unique_for_overwrite<std::uint32_t[]>(n);
      weights_[1] = std::make_unique_for_overwrite<std::uint32_t[]>(n);
    }
    // SoA address lanes mirroring the ids: addrs_[L & 1][i] ==
    // unique_[Ids(L)[i]] holds at every point of the traversal because the
    // partition permutes both lanes identically. The split-bit count and the
    // partition read this lane sequentially instead of gathering
    // unique_[id] per element, so their reads and writes stream.
    addrs_[0] = std::make_unique_for_overwrite<std::uint32_t[]>(n);
    addrs_[1] = std::make_unique_for_overwrite<std::uint32_t[]>(n);
    if (stripped_.unique_count() < (std::uint64_t{1} << 31)) {
      kernels_.gather(root_ids_, n, unique_.data(), addrs_[0].get());
    } else {
      // vpgatherdd indices are signed, so an id >= 2^31 would wrap; fill
      // the lane scalar for such traces instead of corrupting it.
      for (std::size_t i = 0; i < n; ++i) {
        addrs_[0][i] = unique_[root_ids_[i]];
      }
    }

    main_.base = 0;
    main_.hist.resize(max_bits_ + 1);
    for (std::uint32_t level = 0; level <= max_bits_; ++level) {
      main_.hist[level].assign(caps_[level], 0);
    }
    main_.counted.assign(max_bits_ + 1, 0);

    lanes_.resize(cut_ == 0 ? 1 : jobs);
    SizeLane(lanes_[0], 0);
    if (cut_ == 0) return;

    // Lanes 1.. never see the root, so they are sized from level 1 — half
    // the deepest stack and window on a balanced trace.
    chunk_tallies_.resize(jobs - 1);
    for (unsigned chunk = 1; chunk < jobs; ++chunk) {
      SizeLane(lanes_[chunk], 1);
      LevelTallies& tallies = chunk_tallies_[chunk - 1];
      tallies.base = 1;
      tallies.hist.resize(max_bits_);
      for (std::uint32_t level = 1; level <= max_bits_; ++level) {
        tallies.hist[level - 1].assign(caps_[level], 0);
      }
      tallies.counted.assign(max_bits_, 0);
    }
    // Levels 1..cut hold fewer than 2^(cut + 1) nodes between them.
    queue_.resize(std::size_t{2} << cut_);
  }

  const std::uint32_t* Ids(std::uint32_t level) const {
    return level == 0 ? root_ids_ : ids_[level & 1].get();
  }

  const std::uint32_t* Weights(std::uint32_t level) const {
    return level == 0 ? root_weights_ : weights_[level & 1].get();
  }

  LevelTallies& TalliesFor(std::size_t chunk) {
    return chunk == 0 ? main_ : chunk_tallies_[chunk - 1];
  }

  // Scans one node with the scan the cost model picks on `lane`'s scratch,
  // tallying distances >= 1 into `tallies`. Returns the node's distinct
  // count.
  std::size_t ScanNode(const Frame& node, LaneScratch& lane,
                       LevelTallies& tallies) {
    std::vector<std::uint64_t>& hist = tallies.hist[node.level - tallies.base];
    std::uint64_t& counted = tallies.counted[node.level - tallies.base];
    const std::size_t len = node.end - node.begin;
    ++tallies.nodes;
    tallies.refs += len;
    std::size_t distinct;
    if (UseFenwick(node)) {
      tallies.fenwick_refs += len;
      distinct = ScanFenwick(node, lane, hist, counted);
    } else {
      tallies.mtf_refs += len;
      distinct = ScanMtf(node, lane, hist, counted);
    }
    // Every id of the node is a unique line of one residue class mod
    // 2^level, so distinct <= caps_[level] holds by construction of caps_;
    // this check turns a corrupted partition into a clean abort. It bounds
    // everything the scans index: a tallied distance counts other distinct
    // ids, so it is < distinct <= caps_[level] == hist.size(); and a
    // renumbering keeps fewer than distinct marks in a window of at least
    // 2 * caps_[level] slots, so it frees at least half the window (a
    // window of at least len slots never fills).
    CES_CHECK(distinct <= caps_[node.level]);
    return distinct;
  }

  // Move-to-front scan: stack position == number of distinct references of
  // this row touched since the previous occurrence. One backward shift both
  // searches for the id and slides the displaced prefix, so each element is
  // loaded and stored exactly once.
  std::size_t ScanMtf(const Frame& node, LaneScratch& lane,
                      std::vector<std::uint64_t>& hist,
                      std::uint64_t& counted) {
    const std::uint32_t* ids = Ids(node.level);
    [[maybe_unused]] const std::uint32_t* weights = Weights(node.level);
    std::vector<std::uint32_t>& stack = lane.mtf;
    stack.clear();
    for (std::size_t i = node.begin; i < node.end; ++i) {
      const std::uint32_t id = ids[i];
      std::uint32_t carry = id;
      std::size_t distance = stack.size();
      for (std::size_t d = 0; d < stack.size(); ++d) {
        const std::uint32_t displaced = stack[d];
        stack[d] = carry;
        if (displaced == id) {
          distance = d;
          break;
        }
        carry = displaced;
      }
      if (distance == stack.size()) {
        stack.push_back(carry);  // cold occurrence; capacity reserved
        continue;
      }
      if (distance >= 1) {
        // A collapsed entry's references all share its distance.
        const std::uint32_t weight = kWeighted ? weights[i] : 1u;
        hist[distance] += weight;
        counted += weight;
      }
    }
    return stack.size();
  }

  // Bennett-Kruskal over a bounded window: each id seen by the node keeps
  // one mark, in the window slot of its latest occurrence, and an
  // occurrence's stack distance is the number of marks after its previous
  // slot. References take consecutive slots; when the window is full, the
  // live marks are renumbered to the front in slot order (which keeps every
  // "marks after" count) and the counts are rebuilt in O(window).
  //
  // The marks are a bitset of 64-slot words under a complete binary tree
  // of per-word counts, so a lookup is one popcount plus a walk of fixed
  // height log2(words): the loop trip count never depends on the data,
  // and on big_synth the root's bits and counts take 8 KiB, inside L1.
  //
  // Each node stamps its lane's own per-id records with a fresh lane epoch,
  // so nothing needs clearing between nodes. The record load is
  // random-access, so software prefetch covers it a few references ahead.
  std::size_t ScanFenwick(const Frame& node, LaneScratch& lane,
                          std::vector<std::uint64_t>& hist,
                          std::uint64_t& counted) {
    constexpr std::size_t kIdAhead = 8;
    IdMark* marks = lane.marks.data();
    const std::uint32_t epoch = ++lane.epoch;
    const std::uint32_t* ids = Ids(node.level) + node.begin;
    [[maybe_unused]] const std::uint32_t* weights =
        kWeighted ? Weights(node.level) + node.begin : nullptr;
    const std::size_t len = node.end - node.begin;
    const std::size_t window = WindowSize(node.level, len);
    const std::size_t words = window / 64;
    const auto height = static_cast<std::uint32_t>(std::countr_zero(words));
    std::uint64_t* bits = lane.bits.data();
    std::uint32_t* counts = lane.counts.data();  // counts[words + w]: word w
    std::uint32_t* slot_ids = lane.slot_ids.data();
    std::fill(bits, bits + words, std::uint64_t{0});
    std::fill(counts, counts + 2 * words, 0u);
    std::uint32_t live = 0;  // ids seen so far
    std::size_t cursor = 0;  // next free slot
    for (std::size_t pos = 0; pos < len; ++pos) {
      if (pos + kIdAhead < len) {
        support::simd::PrefetchRead(&marks[ids[pos + kIdAhead]]);
      }
      const std::uint32_t id = ids[pos];
      IdMark& mark = marks[id];
      if (mark.epoch == epoch) {
        // The epoch guard means the record was written by this node, so
        // its slot holds a live mark of this window: never stale.
        const std::size_t slot = mark.slot;
        const std::size_t w = slot >> 6;
        const std::uint64_t word = bits[w];
        // Marks after the slot: the rest of its word, then every right
        // sibling on the way up (a left child's sibling lies wholly after
        // it). The same walk removes the mark from the counts.
        auto distance = static_cast<std::uint32_t>(
            std::popcount((word >> (slot & 63)) >> 1));
        bits[w] = word & ~(std::uint64_t{1} << (slot & 63));
        std::size_t k = words + w;
        for (std::uint32_t h = 0; h < height; ++h) {
          distance += counts[k ^ 1] & ((k & 1) - 1);
          --counts[k];
          k >>= 1;
        }
        if (distance >= 1) {
          const std::uint32_t weight = kWeighted ? weights[pos] : 1u;
          hist[distance] += weight;
          counted += weight;
        }
      } else {
        mark.epoch = epoch;
        ++live;
      }
      if (cursor == window) {
        cursor = Renumber(bits, counts, slot_ids, words, marks);
      }
      bits[cursor >> 6] |= std::uint64_t{1} << (cursor & 63);
      std::size_t k = words + (cursor >> 6);
      for (std::uint32_t h = 0; h < height; ++h) {
        ++counts[k];
        k >>= 1;
      }
      slot_ids[cursor] = id;
      mark.slot = static_cast<std::uint32_t>(cursor);
      ++cursor;
    }
    return live;
  }

  // Moves the live marks of a full window to slots [0, k) in their current
  // order, rebuilds the bitset and counts for that layout, and returns k,
  // the first free slot.
  static std::size_t Renumber(std::uint64_t* bits, std::uint32_t* counts,
                              std::uint32_t* slot_ids, std::size_t words,
                              IdMark* marks) {
    std::size_t k = 0;
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
        const std::uint32_t id = slot_ids[w * 64 + std::countr_zero(word)];
        slot_ids[k] = id;
        marks[id].slot = static_cast<std::uint32_t>(k);
        ++k;
      }
    }
    // ScanNode's bound argument; checked here too because a full window
    // would otherwise be written past its end.
    CES_CHECK(k < 64 * words);
    for (std::size_t w = 0; w < words; ++w) {
      const std::size_t ones =
          std::min<std::size_t>(64, k - std::min(k, 64 * w));
      bits[w] = ones == 0 ? 0 : ~std::uint64_t{0} >> (64 - ones);
      counts[words + w] = static_cast<std::uint32_t>(ones);
    }
    for (std::size_t j = words; j-- > 1;) {
      counts[j] = counts[2 * j] + counts[2 * j + 1];
    }
    return k;
  }

  // Counts the node's bit-B_level zeros (a dedicated vectorizable pass over
  // the SoA address lane) and stably partitions its segment into the twin
  // buffer: the left child (bit B_level == 0) lands at [begin, mid), the
  // right child at [mid, end). Children read the twin buffer — the parity
  // rule holds globally because every node only ever writes inside its own
  // segment (the dispatched kernels guarantee the same containment: masked
  // stores never touch a byte outside the two runs). The id and address
  // lanes are permuted identically, which is what preserves the SoA mirror
  // invariant. Returns mid.
  std::size_t Split(const Frame& node) {
    const std::size_t parity = node.level & 1;
    const std::size_t twin = parity ^ 1;
    const std::size_t len = node.end - node.begin;
    const std::uint32_t* addrs = addrs_[parity].get() + node.begin;
    const std::size_t mid =
        node.begin + kernels_.count_zero_bits(addrs, len, node.level);
    kernels_.partition_pair(
        Ids(node.level) + node.begin, addrs, len, node.level,
        ids_[twin].get() + node.begin, addrs_[twin].get() + node.begin,
        ids_[twin].get() + mid, addrs_[twin].get() + mid);
    if constexpr (kWeighted) {
      // The same stable partition for the weight lane, scalar: the bit
      // selects the run by pointer, not by branch, and no store leaves the
      // two runs.
      const std::uint32_t* weights = Weights(node.level) + node.begin;
      std::uint32_t* left = weights_[twin].get() + node.begin;
      std::uint32_t* right = weights_[twin].get() + mid;
      for (std::size_t t = 0; t < len; ++t) {
        const std::uint32_t bit = (addrs[t] >> node.level) & 1u;
        *(bit != 0 ? right : left) = weights[t];
        left += bit ^ 1u;
        right += bit;
      }
    }
    return mid;
  }

  // Rows with fewer than two distinct references can never conflict at any
  // deeper level either (their subsets only shrink) — prune, as Algorithm 1
  // does for BCAT growth.
  bool Splits(const Frame& node, std::size_t distinct) const {
    return distinct >= 2 && node.level < max_bits_;
  }

  // Iterative DFS from `root` down to the leaves.
  void Traverse(const Frame& root, LaneScratch& lane, LevelTallies& tallies) {
    lane.frames.clear();
    lane.frames.push_back(root);
    while (!lane.frames.empty()) {
      const Frame node = lane.frames.back();
      lane.frames.pop_back();
      const std::size_t distinct = ScanNode(node, lane, tallies);
      if (!Splits(node, distinct)) continue;
      const std::size_t mid = Split(node);
      if (mid < node.end) {
        lane.frames.push_back({node.level + 1, mid, node.end, distinct});
      }
      if (node.begin < mid) {
        lane.frames.push_back({node.level + 1, node.begin, mid, distinct});
      }
    }
  }

  // Splits a node above the cut that holds `distinct` ids and queues its
  // non-empty children. Nodes run as tasks only
  // once their parent is done, and concurrent tasks own disjoint segments
  // of both buffers, so no partition can overwrite data a running scan
  // reads.
  void QueueChildren(const Frame& node, std::size_t distinct) {
    if (!Splits(node, distinct)) return;
    const std::size_t mid = Split(node);
    const Frame children[2] = {{node.level + 1, node.begin, mid, distinct},
                               {node.level + 1, mid, node.end, distinct}};
    std::lock_guard<std::mutex> lock(queue_mutex_);
    for (const Frame& child : children) {
      if (child.begin == child.end) continue;
      queue_[queue_tail_++] = child;
      ++pending_;
    }
  }

  // The pool body: chunk 0 first scans the root, then every chunk takes
  // nodes from the queue (oldest first, so the top of the tree goes
  // first) until no node is queued or running.
  void RunTasks(std::size_t chunk) {
    LaneScratch& lane = lanes_[chunk];
    LevelTallies& tallies = TalliesFor(chunk);
    if (chunk == 0) ScanNode(root_, lane, tallies);
    for (;;) {
      Frame node;
      {
        std::unique_lock<std::mutex> lock(queue_mutex_);
        queue_ready_.wait(lock, [this] {
          return queue_head_ < queue_tail_ || pending_ == 0;
        });
        if (queue_head_ == queue_tail_) return;
        node = queue_[queue_head_++];
      }
      if (node.level == cut_) {
        Traverse(node, lane, tallies);
      } else {
        QueueChildren(node, ScanNode(node, lane, tallies));
      }
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        --pending_;
      }
      // Wakes waiters for the children just queued, or to finish.
      queue_ready_.notify_all();
    }
  }

  const trace::StrippedTrace& stripped_;
  const std::vector<std::uint32_t>& unique_;
  const std::uint32_t* const root_ids_;
  const std::uint32_t* const root_weights_;
  const std::uint32_t max_bits_;
  const FusedPreludeOptions& options_;
  const support::simd::Kernels& kernels_;
  const Frame root_;

  std::uint32_t cut_ = 0;
  std::vector<std::size_t> caps_;
  std::unique_ptr<std::uint32_t[]> ids_[2];
  std::unique_ptr<std::uint32_t[]> addrs_[2];  // SoA twin: unique_[id]
  std::unique_ptr<std::uint32_t[]> weights_[2];  // kWeighted only
  LevelTallies main_;
  std::vector<LaneScratch> lanes_;
  std::vector<LevelTallies> chunk_tallies_;  // chunks 1..jobs-1
  // Task queue of the parallel traversal: every node of levels 1..cut
  // passes through it exactly once, so it never wraps.
  std::vector<Frame> queue_;
  std::size_t queue_head_ = 0;
  std::size_t queue_tail_ = 0;
  std::size_t pending_ = 0;  // nodes queued or running
  std::mutex queue_mutex_;
  std::condition_variable queue_ready_;
};

}  // namespace

std::vector<cache::StackProfile> ComputeMissProfilesFused(
    const trace::StrippedTrace& stripped, std::uint32_t max_index_bits,
    const FusedPreludeOptions& options) {
  const std::size_t n = stripped.size();
  // The collapsed entries live only as long as the traversal that reads
  // them. Weights are 32-bit, and one entry can stand for every reference.
  std::optional<WeightedIds> collapsed;
  if (n <= 0xffffffffu && options.collapse != CollapseMode::kNever) {
    const std::uint32_t* ids = stripped.ids.data();
    collapsed = options.collapse == CollapseMode::kAlways
                    ? CollapseRepeats(ids, n, stripped.unique_count())
                    : CollapseIfWorthwhile(ids, n, stripped.unique_count());
  }
  if (!collapsed) {
    return FusedTraversal<false>(stripped, {stripped.ids.data(), nullptr, n},
                                 max_index_bits, options)
        .Run();
  }
  return FusedTraversal<true>(stripped,
                              {collapsed->ids.data(), collapsed->weights.data(),
                               collapsed->size()},
                              max_index_bits, options)
      .Run();
}

}  // namespace ces::analytic
