#include "tlb/mem/task_arena.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "tlb/util/parallel.hpp"

namespace tlb::mem {

std::ostream& operator<<(std::ostream& os, const TaskSpan& span) {
  os << "[";
  for (std::size_t i = 0; i < span.size(); ++i) {
    if (i) os << ", ";
    os << span[i];
  }
  return os << "]";
}

// ---------------------------------------------------------------------------
// TaskArena
// ---------------------------------------------------------------------------

void TaskArena::reset(Node n) {
  begin_.assign(n, 0);
  count_.assign(n, 0);
  cap_.assign(n, 0);
  load_.assign(n, 0.0);
  accepted_load_.assign(n, 0.0);
  accepted_count_.assign(n, 0);
  ids_.clear();
  weights_.clear();
  used_ = 0;
  reserved_ = 0;
  live_ = 0;
}

void TaskArena::reserve(std::size_t tasks) {
  ids_.reserve(tasks);
  weights_.reserve(tasks);
}

namespace {

/// Growth slack a span of `count` live tasks is given when (re)built: an
/// eighth, floored at the minimum span size and capped so giant spans (the
/// all-on-one start) do not reserve megabytes they will never use.
std::size_t span_cap(std::size_t count) {
  if (count == 0) return 0;
  return std::max(TaskArena::kMinCap,
                  count + std::min<std::size_t>(count / 8, 4096));
}

}  // namespace

void TaskArena::grow(Node r, std::size_t min_cap) {
  const std::uint32_t from = relocate(r, min_cap);
  if (from == kStayed) return;
  fit_slab();
  move_span(r, from, count_[r]);
}

void TaskArena::fit_slab() {
  // Grow the capacity as resizing relocation by relocation would: double
  // it until the booked slots fit, so a pass of many relocations leaves
  // the same headroom (and peak memory) as single grows.
  std::size_t cap = std::max<std::size_t>(ids_.capacity(), 1);
  while (cap < used_) cap *= 2;
  ids_.reserve(cap);
  weights_.reserve(cap);
  ids_.resize(used_);
  weights_.resize(used_);
}

std::uint32_t TaskArena::relocate(Node r, std::size_t min_cap) {
  std::size_t new_cap = std::max(kMinCap, 2 * std::size_t{cap_[r]});
  new_cap = std::max(new_cap, min_cap);
  // Abandoning the old span leaves a hole; once holes dominate the slab,
  // repack before growing so memory stays O(live). The constant keeps tiny
  // arenas from compacting on every relocation. Compaction re-slacks every
  // span, so it may already have made room for this push — relocating
  // anyway would punch a fresh hole into the just-packed slab.
  if (used_ - reserved_ > reserved_ + 1024) {
    compact();
    if (cap_[r] >= min_cap) return kStayed;
  }
  if (used_ + new_cap > kMaxSlots) {
    throw std::length_error("TaskArena: slab exceeds 32-bit span offsets");
  }
  const std::uint32_t old_begin = begin_[r];
  const std::size_t new_begin = used_;
  used_ += new_cap;
  reserved_ += new_cap - cap_[r];
  begin_[r] = static_cast<std::uint32_t>(new_begin);
  cap_[r] = static_cast<std::uint32_t>(new_cap);
  ++relocations_;
  return old_begin;
}

void TaskArena::move_span(Node r, std::size_t from, std::size_t count) {
  const auto to = static_cast<std::ptrdiff_t>(begin_[r]);
  const auto at = static_cast<std::ptrdiff_t>(from);
  std::copy_n(ids_.begin() + at, count, ids_.begin() + to);
  std::copy_n(weights_.begin() + at, count, weights_.begin() + to);
}

void TaskArena::compact() {
  const Node n = num_resources();
  Slab<TaskId> packed_ids;
  Slab<double> packed_weights;
  packed_ids.reserve(live_ + live_ / 8);
  packed_weights.reserve(live_ + live_ / 8);
  std::size_t running = 0;
  for (Node r = 0; r < n; ++r) {
    const std::size_t c = count_[r];
    const std::size_t new_cap = span_cap(c);
    packed_ids.resize(running + new_cap);
    packed_weights.resize(running + new_cap);
    std::copy_n(ids_.begin() + static_cast<std::ptrdiff_t>(begin_[r]), c,
                packed_ids.begin() + static_cast<std::ptrdiff_t>(running));
    std::copy_n(weights_.begin() + static_cast<std::ptrdiff_t>(begin_[r]), c,
                packed_weights.begin() + static_cast<std::ptrdiff_t>(running));
    begin_[r] = static_cast<std::uint32_t>(running);
    cap_[r] = static_cast<std::uint32_t>(new_cap);
    running += new_cap;
  }
  ids_ = std::move(packed_ids);
  weights_ = std::move(packed_weights);
  used_ = running;
  reserved_ = running;
  ++compactions_;
}

void TaskArena::push(Node r, TaskId id, double w) {
  if (count_[r] == cap_[r]) grow(r, count_[r] + 1);
  const std::size_t slot = begin_[r] + count_[r];
  ids_[slot] = id;
  weights_[slot] = w;
  ++count_[r];
  ++live_;
  load_[r] += w;
}

bool TaskArena::push_accepting(Node r, TaskId id, double w, double threshold) {
  // Accepted iff nothing unaccepted sits below (so the arriving height is
  // the accepted load) and the task fits entirely below the threshold.
  const bool accept =
      (accepted_count_[r] == count_[r]) && (load_[r] + w <= threshold);
  push(r, id, w);
  if (accept) {
    ++accepted_count_[r];
    accepted_load_[r] += w;
  }
  return accept;
}

void TaskArena::evict_unaccepted(Node r, std::vector<TaskId>& out) {
  const std::uint32_t first = accepted_count_[r];
  const TaskId* ids = ids_.data() + begin_[r];
  for (std::size_t i = first; i < count_[r]; ++i) out.push_back(ids[i]);
  live_ -= count_[r] - first;
  count_[r] = first;
  // Snap to the accepted bookkeeping instead of subtracting evictee weights:
  // accumulated rounding could otherwise leave load a few ulps above the
  // threshold with nothing left to evict, and a load-keyed overloaded set
  // would never drain.
  load_[r] = accepted_load_[r];
}

void TaskArena::evict_above(Node r, double threshold,
                            std::vector<TaskId>& out) {
  // Largest prefix of completely-below tasks (h + w <= T); evict the rest —
  // exactly I^a ∪ I^c under the height semantics.
  const TaskId* ids = ids_.data() + begin_[r];
  const double* w = weights_.data() + begin_[r];
  double h = 0.0;
  std::size_t keep = 0;
  while (keep < count_[r]) {
    if (h + w[keep] > threshold) break;
    h += w[keep];
    ++keep;
  }
  for (std::size_t i = keep; i < count_[r]; ++i) out.push_back(ids[i]);
  live_ -= count_[r] - keep;
  count_[r] = static_cast<std::uint32_t>(keep);
  // Set the load to the kept prefix's height instead of subtracting the
  // evictees' weights, as evict_unaccepted snaps it: a difference can round
  // above a threshold the prefix fits under, leaving r overloaded with
  // nothing to evict.
  load_[r] = h;
  accepted_count_[r] =
      std::min(accepted_count_[r], static_cast<std::uint32_t>(keep));
  accepted_load_[r] = std::min(accepted_load_[r], load_[r]);
}

void TaskArena::remove_marked(Node r, const std::vector<std::uint8_t>& leave,
                              std::vector<TaskId>& out) {
  const std::size_t len = leave.size();
  if (len != count_[r]) {
    throw std::invalid_argument("remove_marked: mask size mismatch");
  }
  TaskId* ids = ids_.data() + begin_[r];
  double* w = weights_.data() + begin_[r];
  std::size_t keep = 0;
  std::size_t accepted_kept = 0;
  double accepted_load_kept = 0.0;
  for (std::size_t i = 0; i < len; ++i) {
    if (leave[i]) {
      out.push_back(ids[i]);
      load_[r] -= w[i];
    } else {
      if (i < accepted_count_[r]) {
        ++accepted_kept;
        accepted_load_kept += w[i];
      }
      ids[keep] = ids[i];
      w[keep] = w[i];
      ++keep;
    }
  }
  live_ -= count_[r] - keep;
  count_[r] = static_cast<std::uint32_t>(keep);
  // Accepted tasks form a prefix and survivors keep their relative order,
  // so the surviving accepted tasks are still a correctly-accounted prefix.
  accepted_count_[r] = static_cast<std::uint32_t>(accepted_kept);
  accepted_load_[r] = accepted_load_kept;
}

namespace {

/// Marked coins in mask[lo, hi) (mask bytes are 0 or 1).
std::size_t marked(const std::uint8_t* mask, std::size_t lo, std::size_t hi) {
  std::size_t sum = 0;
  for (std::size_t c = lo; c < hi; ++c) sum += mask[c];
  return sum;
}

}  // namespace

void TaskArena::remove_marked(const FlatMarks& marks, const tasks::TaskSet& ts,
                              std::vector<TaskId>& ids,
                              std::vector<Node>& origin,
                              util::ThreadPool* pool) {
  const std::size_t k = marks.resources.size();
  const std::size_t coins = marks.mask.size();
  const std::size_t grain = std::max<std::size_t>(marks.grain, 1);
  const std::size_t shards = util::shard_count(coins, grain);
  if (marks.prefix.size() != k + 1 || marks.prefix[0] != 0 ||
      marks.prefix[k] != coins || marks.shard_movers.size() != shards + 1 ||
      marks.shard_movers[0] != 0) {
    throw std::invalid_argument("remove_marked: flat layout size mismatch");
  }
  const Node n = num_resources();
  for (std::size_t i = 0; i < k; ++i) {
    const Node r = marks.resources[i];
    if (r >= n || (i > 0 && r <= marks.resources[i - 1])) {
      throw std::invalid_argument(
          "remove_marked: resources not ascending in range");
    }
    if (marks.prefix[i + 1] - marks.prefix[i] != count_[r]) {
      throw std::invalid_argument("remove_marked: mask size mismatch");
    }
  }
  const std::size_t movers = marks.shard_movers[shards];
  ids.resize(movers);
  origin.resize(movers);
  if (movers == 0) return;

  util::parallel_shard(
      coins, grain, pool,
      [&](std::size_t s, std::size_t lo, std::size_t hi) {
        const std::size_t first = marks.shard_movers[s];
        if (first == marks.shard_movers[s + 1]) return;  // nothing marked
        const std::size_t wrote =
            remove_marked_shard(marks, s, lo, hi, ids.data(), origin.data());
        if (wrote != marks.shard_movers[s + 1] - first) {
          throw std::logic_error("remove_marked: shard mark count mismatch");
        }
      });

  // Stacks crossing a shard boundary, in layout order. Their first mover
  // follows the marks of their first shard that precede them.
  const std::uint8_t* mask = marks.mask.data();
  std::size_t last = k;
  for (std::size_t s = 1; s < shards; ++s) {
    const std::size_t boundary = s * grain;
    const std::size_t i =
        static_cast<std::size_t>(std::upper_bound(marks.prefix.begin(),
                                                  marks.prefix.end(),
                                                  boundary) -
                                 marks.prefix.begin()) -
        1;
    if (marks.prefix[i] == boundary || i == last) continue;
    last = i;
    const std::size_t start = marks.prefix[i];
    const std::size_t shard_lo = start / grain * grain;
    const std::size_t mover =
        marks.shard_movers[start / grain] + marked(mask, shard_lo, start);
    finish_crossing(marks, i, ts, ids.data() + mover);
  }
  live_ -= movers;
}

std::size_t TaskArena::remove_marked_shard(const FlatMarks& marks,
                                           std::size_t s, std::size_t lo,
                                           std::size_t hi, TaskId* ids,
                                           Node* origin) {
  const std::span<const std::size_t> prefix = marks.prefix;
  const std::uint8_t* mask = marks.mask.data();
  const std::size_t first = marks.shard_movers[s];
  const std::size_t last = marks.shard_movers[s + 1];
  std::size_t mover = first;
  // The loops below are branch-free on the coin (at p near 1/2 a branch on
  // it mispredicts half the time): every task is written both as a mover
  // and as a survivor, and only the matching cursor advances. A mover
  // write past the shard's last mover would land in the next shard's
  // range, so it is skipped; the survivor write never passes the read.
  const auto put = [&](TaskId id, Node r) {
    if (mover < last) {
      ids[mover] = id;
      origin[mover] = r;
    }
  };
  // Resource index whose coin range contains lo.
  std::size_t i = static_cast<std::size_t>(
                      std::upper_bound(prefix.begin(), prefix.end(), lo) -
                      prefix.begin()) -
                  1;
  for (std::size_t c = lo; c < hi;) {
    while (prefix[i + 1] <= c) ++i;
    const Node r = marks.resources[i];
    const std::size_t start = prefix[i];
    const std::size_t end = std::min(hi, prefix[i + 1]);
    TaskId* id = ids_.data() + begin_[r];
    double* w = weights_.data() + begin_[r];
    if (start >= lo && end == prefix[i + 1]) {
      // The whole stack is in this shard: remove_marked's loop, movers
      // written in place. Subtracting +0.0 for a survivor leaves the load
      // bitwise unchanged, so the chain equals the leaver-only one.
      const std::size_t len = end - start;
      const std::uint8_t* leave = mask + start;
      c = end;
      if (std::memchr(leave, 1, len) == nullptr) continue;
      const std::size_t accepted = accepted_count_[r];
      std::size_t keep = 0;
      std::size_t accepted_kept = 0;
      double accepted_load_kept = 0.0;
      double load = load_[r];
      for (std::size_t p = 0; p < len; ++p) {
        const bool out = leave[p] != 0;
        const TaskId task = id[p];
        const double wt = w[p];
        put(task, r);
        mover += out;
        load -= out ? wt : 0.0;
        if (p < accepted && !out) {
          ++accepted_kept;
          accepted_load_kept += wt;
        }
        id[keep] = task;
        w[keep] = wt;
        keep += !out;
      }
      load_[r] = load;
      count_[r] = static_cast<std::uint32_t>(keep);
      accepted_count_[r] = static_cast<std::uint32_t>(accepted_kept);
      accepted_load_[r] = accepted_load_kept;
      continue;
    }
    // This shard's slice of a crossing stack: write its movers and compact
    // its survivors to the front of the slice; finish_crossing does the
    // rest once every slice is done.
    std::size_t keep = c - start;
    for (; c < end; ++c) {
      const bool out = mask[c] != 0;
      const std::size_t p = c - start;
      const TaskId task = id[p];
      const double wt = w[p];
      put(task, r);
      mover += out;
      id[keep] = task;
      w[keep] = wt;
      keep += !out;
    }
  }
  return mover - first;
}

void TaskArena::finish_crossing(const FlatMarks& marks, std::size_t i,
                                const tasks::TaskSet& ts,
                                const TaskId* movers) {
  const Node r = marks.resources[i];
  const std::size_t start = marks.prefix[i];
  const std::size_t stop = marks.prefix[i + 1];
  const std::size_t grain = std::max<std::size_t>(marks.grain, 1);
  const std::uint8_t* mask = marks.mask.data();
  TaskId* id = ids_.data() + begin_[r];
  double* w = weights_.data() + begin_[r];
  // Join the slices in shard order: each holds its survivors at its front.
  // A slice that is a whole shard has its leaver count in shard_movers.
  std::size_t keep = 0;
  std::size_t leavers = 0;
  for (std::size_t c = start; c < stop;) {
    const std::size_t s = c / grain;
    const std::size_t end = std::min(stop, (s + 1) * grain);
    const bool whole = c == s * grain && end == std::min(marks.mask.size(),
                                                         (s + 1) * grain);
    const std::size_t out =
        whole ? marks.shard_movers[s + 1] - marks.shard_movers[s]
              : marked(mask, c, end);
    const std::size_t kept = end - c - out;
    const std::size_t p = c - start;
    if (p != keep) {  // overlapping, destination first: std::copy is safe
      std::copy(id + p, id + p + kept, id + keep);
      std::copy(w + p, w + p + kept, w + keep);
    }
    keep += kept;
    leavers += out;
    c = end;
  }
  if (leavers == 0) return;
  // The load chain in stack order, as remove_marked subtracts it.
  const double* tw = ts.weights().data();
  double load = load_[r];
  for (std::size_t j = 0; j < leavers; ++j) load -= tw[movers[j]];
  load_[r] = load;
  // The surviving accepted tasks are the first `accepted` survivors.
  const std::size_t accepted =
      accepted_count_[r] - marked(mask, start, start + accepted_count_[r]);
  double accepted_load = 0.0;
  for (std::size_t p = 0; p < accepted; ++p) accepted_load += w[p];
  count_[r] = static_cast<std::uint32_t>(keep);
  accepted_count_[r] = static_cast<std::uint32_t>(accepted);
  accepted_load_[r] = accepted_load;
}

void TaskArena::clear(Node r) noexcept {
  live_ -= count_[r];
  count_[r] = 0;
  load_[r] = 0.0;
  accepted_load_[r] = 0.0;
  accepted_count_[r] = 0;
}

double TaskArena::height_at(Node r, std::size_t pos) const {
  if (pos >= count_[r]) {
    throw std::out_of_range("height_at: position beyond stack top");
  }
  const double* w = weights_.data() + begin_[r];
  double h = 0.0;
  for (std::size_t i = 0; i < pos; ++i) h += w[i];
  return h;
}

double TaskArena::phi(Node r, double threshold) const noexcept {
  if (load_[r] <= threshold) return 0.0;
  // Largest prefix of completely-below tasks: walk up while h + w <= T.
  const double* w = weights_.data() + begin_[r];
  double h = 0.0;
  for (std::size_t i = 0; i < count_[r]; ++i) {
    if (h + w[i] > threshold) break;
    h += w[i];
  }
  return load_[r] - h;
}

void TaskArena::check_invariants() const {
  const Node n = num_resources();
  if (ids_.size() != used_ || weights_.size() != used_) {
    throw std::logic_error("TaskArena: slab size drifted from used_");
  }
  std::size_t live = 0;
  std::size_t reserved = 0;
  std::vector<std::pair<std::size_t, std::size_t>> spans;  // (begin, cap)
  for (Node r = 0; r < n; ++r) {
    if (count_[r] > cap_[r]) {
      throw std::logic_error("TaskArena: count exceeds cap on resource " +
                             std::to_string(r));
    }
    if (cap_[r] > 0) {
      if (begin_[r] + cap_[r] > used_) {
        throw std::logic_error("TaskArena: span past slab end on resource " +
                               std::to_string(r));
      }
      spans.emplace_back(begin_[r], cap_[r]);
    }
    live += count_[r];
    reserved += cap_[r];
    double sum = 0.0;
    const double* w = weights_.data() + begin_[r];
    for (std::size_t i = 0; i < count_[r]; ++i) {
      if (!(w[i] > 0.0)) {
        throw std::logic_error("TaskArena: non-positive mirrored weight");
      }
      sum += w[i];
    }
    if (std::fabs(sum - load_[r]) > 1e-6) {
      throw std::logic_error("TaskArena: cached load drifted on resource " +
                             std::to_string(r));
    }
    if (accepted_count_[r] > count_[r]) {
      throw std::logic_error("TaskArena: accepted prefix longer than span");
    }
    if (accepted_load_[r] > load_[r] + 1e-9) {
      throw std::logic_error("TaskArena: accepted load exceeds load");
    }
  }
  if (live != live_) {
    throw std::logic_error("TaskArena: live counter drifted");
  }
  if (reserved != reserved_) {
    throw std::logic_error("TaskArena: reserved counter drifted");
  }
  if (reserved_ > used_) {
    throw std::logic_error("TaskArena: reserved exceeds used");
  }
  std::sort(spans.begin(), spans.end());
  for (std::size_t i = 1; i < spans.size(); ++i) {
    if (spans[i - 1].first + spans[i - 1].second > spans[i].first) {
      throw std::logic_error("TaskArena: overlapping spans");
    }
  }
}

// ---------------------------------------------------------------------------
// BatchPlacer
// ---------------------------------------------------------------------------

template <class Accept>
void BatchPlacer::fill(TaskArena& arena, const tasks::TaskSet& ts,
                       const tasks::Placement& placement,
                       const Accept& accept) {
  // cursor_ already points at each span's first slot.
  TaskArena& a = arena;
  const double* w = ts.weights().data();
  for (std::size_t i = 0; i < placement.size(); ++i) {
    const Node r = placement[i];
    const std::size_t slot = cursor_[r]++;
    a.ids_[slot] = static_cast<TaskId>(i);
    a.weights_[slot] = w[i];
    accept(a, r, slot - a.begin_[r], w[i]);
    a.load_[r] += w[i];
  }
}

void BatchPlacer::place(TaskArena& arena, const tasks::TaskSet& ts,
                        const tasks::Placement& placement) {
  if (layout(arena, ts, placement)) return;
  fill(arena, ts, placement, [](TaskArena&, Node, std::size_t, double) {});
}

void BatchPlacer::place(TaskArena& arena, const tasks::TaskSet& ts,
                        const tasks::Placement& placement,
                        const core::Thresholds& thresholds) {
  if (!thresholds.fits(arena.num_resources())) {
    throw std::invalid_argument("BatchPlacer: thresholds do not fit the arena");
  }
  if (layout(arena, ts, placement)) {
    // One destination: the accepted prefix ends at the first rejection, so
    // the acceptance scan stops early instead of walking all m tasks.
    const Node r = placement[0];
    const double T = thresholds[r];
    const double* w = ts.weights().data();
    const std::size_t m = placement.size();
    double h = 0.0;
    std::size_t accepted = 0;
    while (accepted < m && h + w[accepted] <= T) {
      h += w[accepted];
      ++accepted;
    }
    arena.accepted_count_[r] = static_cast<std::uint32_t>(accepted);
    arena.accepted_load_[r] = h;
    return;
  }
  // The fill order is the sequential push order, so each task sees the
  // span position and load push_accepting would have seen.
  thresholds.visit([&](const auto T) {
    fill(arena, ts, placement,
         [T](TaskArena& a, Node r, std::size_t pos, double w) {
           a.book_acceptance(r, pos, w, T[r]);
         });
  });
}

bool BatchPlacer::layout(TaskArena& arena, const tasks::TaskSet& ts,
                         const tasks::Placement& placement) {
  TaskArena& a = arena;
  const Node n = a.num_resources();
  const std::size_t m = placement.size();
  if (m != ts.size()) {
    throw std::invalid_argument("BatchPlacer: placement size mismatch");
  }
  if (m > TaskArena::kMaxSlots) {
    throw std::length_error("BatchPlacer: task count exceeds 32-bit offsets");
  }

  // Pass 1: counting sort by destination, into the scratch array — the
  // arena is not touched until the whole placement has validated, so an
  // out-of-range throw leaves it in its previous consistent state.
  cursor_.assign(n, 0);
  for (std::size_t i = 0; i < m; ++i) {
    const Node r = placement[i];
    if (r >= n) {
      throw std::invalid_argument("BatchPlacer: resource out of range");
    }
    ++cursor_[r];
  }

  std::size_t total_slots = 0;
  for (Node r = 0; r < n; ++r) total_slots += span_cap(cursor_[r]);
  if (total_slots > TaskArena::kMaxSlots) {
    throw std::length_error("BatchPlacer: slab exceeds 32-bit span offsets");
  }

  // Pass 2: contiguous spans with growth slack, in resource order. cursor_
  // hands each resource's count to the arena and is repointed at the
  // span's first write slot for pass 3.
  std::size_t running = 0;
  for (Node r = 0; r < n; ++r) {
    const std::size_t c = cursor_[r];
    const std::size_t cap = span_cap(c);
    a.count_[r] = static_cast<std::uint32_t>(c);
    a.begin_[r] = static_cast<std::uint32_t>(running);
    a.cap_[r] = static_cast<std::uint32_t>(cap);
    cursor_[r] = running;
    running += cap;
  }
  a.used_ = running;
  a.reserved_ = running;
  a.live_ = m;
  a.ids_.resize(running);
  a.weights_.resize(running);
  std::fill(a.load_.begin(), a.load_.end(), 0.0);
  std::fill(a.accepted_load_.begin(), a.accepted_load_.end(), 0.0);
  std::fill(a.accepted_count_.begin(), a.accepted_count_.end(), 0);

  // Single-destination fast path (the paper's all-on-one start, used by
  // every batch preset): the span is the identity id sequence with the
  // TaskSet's weights verbatim, and the load is the TaskSet total (bitwise
  // equal to the sequential sum — TaskSet accumulates in the same id
  // order).
  if (m > 0 && a.count_[placement[0]] == m) {
    const Node r = placement[0];
    const std::size_t b = a.begin_[r];
    for (std::size_t i = 0; i < m; ++i) {
      a.ids_[b + i] = static_cast<TaskId>(i);
    }
    std::copy_n(ts.weights().data(), m, a.weights_.begin() +
                                            static_cast<std::ptrdiff_t>(b));
    a.load_[r] = ts.total_weight();
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// BatchScatter
// ---------------------------------------------------------------------------

void BatchScatter::append(TaskArena& arena, const tasks::TaskSet& ts,
                          const std::vector<Node>& dst,
                          const std::vector<TaskId>& ids,
                          util::ThreadPool* pool) {
  bucket(arena, ts, dst, ids, pool);
  spread(arena, pool, [](TaskArena&, Node, std::size_t, double) {});
}

void BatchScatter::spread_accepting(TaskArena& arena,
                                    const core::Thresholds& thresholds) {
  // The acceptance test reads the span position the task lands at, which
  // is the count a sequential push_accepting would have seen.
  thresholds.visit([&](const auto T) {
    spread(arena, nullptr,
           [T](TaskArena& a, Node r, std::size_t pos, double w) {
             a.book_acceptance(r, pos, w, T[r]);
           });
  });
}

template <class Accept>
void BatchScatter::spread(TaskArena& arena, util::ThreadPool* pool,
                          const Accept& accept) {
  const std::size_t shards = shard_begin_.size() - 1;
  const auto blocks_of = [this](std::size_t s, auto&& fn) {
    for (std::size_t j = shard_begin_[s]; j < shard_begin_[s + 1]; ++j) fn(j);
  };
  util::parallel_shard(shards, 1, pool,
                       [&](std::size_t s, std::size_t, std::size_t) {
                         blocks_of(s, [this](std::size_t j) { count_block(j); });
                       });
  grow_spans(arena);
  util::parallel_shard(
      shards, 1, pool, [&](std::size_t s, std::size_t, std::size_t) {
        blocks_of(s, [&](std::size_t j) { fill_block(arena, j, accept); });
      });
}

void BatchScatter::bucket(const TaskArena& arena, const tasks::TaskSet& ts,
                          const std::vector<Node>& dst,
                          const std::vector<TaskId>& ids,
                          util::ThreadPool* pool) {
  const Node n = arena.num_resources();
  const std::size_t k = dst.size();
  if (ids.size() != k) {
    throw std::invalid_argument("BatchScatter: dst/ids size mismatch");
  }
  if (k > TaskArena::kMaxSlots) {
    throw std::length_error("BatchScatter: batch exceeds 32-bit span offsets");
  }
  blocks_.clear();
  shard_begin_.assign(1, 0);
  if (k == 0) return;

  // Per-chunk block counts, validating every destination before the arena
  // is touched. At most kMaxChunks chunks keep the count table small.
  constexpr std::size_t kMaxChunks = 64;
  const std::size_t chunk =
      std::max(kShardMovers, (k + kMaxChunks - 1) / kMaxChunks);
  const std::size_t chunks = util::shard_count(k, chunk);
  const std::size_t blocks = (std::size_t{n} + kBlockWidth - 1) / kBlockWidth;
  chunk_offsets_.assign(chunks * blocks, 0);
  util::parallel_shard(
      k, chunk, pool, [&](std::size_t c, std::size_t lo, std::size_t hi) {
        std::uint32_t* counts = chunk_offsets_.data() + c * blocks;
        for (std::size_t i = lo; i < hi; ++i) {
          if (dst[i] >= n) {
            throw std::invalid_argument("BatchScatter: resource out of range");
          }
          ++counts[dst[i] / kBlockWidth];
        }
      });
  list_blocks(chunks, blocks);

  // Stable bucketing in index order, weights looked up once here so the
  // fill never indirects through the TaskSet.
  records_.resize(k);
  const double* w = ts.weights().data();
  util::parallel_shard(
      k, chunk, pool, [&](std::size_t c, std::size_t lo, std::size_t hi) {
        std::uint32_t* cursor = chunk_offsets_.data() + c * blocks;
        for (std::size_t i = lo; i < hi; ++i) {
          records_[cursor[dst[i] / kBlockWidth]++] = {dst[i], ids[i],
                                                      w[ids[i]]};
        }
      });
}

void BatchScatter::evict_bucket(TaskArena& arena, std::span<const Node> from,
                                const std::vector<Node>& dst,
                                const core::Thresholds& thresholds) {
  TaskArena& a = arena;
  const Node n = a.num_resources();
  const std::size_t k = dst.size();
  if (!thresholds.fits(n)) {
    throw std::invalid_argument(
        "BatchScatter: thresholds do not fit the arena");
  }
  std::size_t evictees = 0;
  for (std::size_t i = 0; i < from.size(); ++i) {
    const Node r = from[i];
    if (r >= n || (i > 0 && r <= from[i - 1])) {
      throw std::invalid_argument(
          "BatchScatter: eviction list not strictly ascending in range");
    }
    evictees += a.count_[r] - a.accepted_count_[r];
  }
  if (evictees != k) {
    throw std::invalid_argument(
        "BatchScatter: dst size differs from the evictee count");
  }

  // One chunk: count the destinations per block, validating them before
  // the arena is touched.
  const std::size_t blocks = (std::size_t{n} + kBlockWidth - 1) / kBlockWidth;
  chunk_offsets_.assign(blocks, 0);
  for (const Node d : dst) {
    if (d >= n) {
      throw std::invalid_argument("BatchScatter: resource out of range");
    }
    ++chunk_offsets_[d / kBlockWidth];
  }
  blocks_.clear();
  shard_begin_.assign(1, 0);
  list_blocks(1, blocks);

  // Evictee j is the j-th unaccepted task in list order, bottom to top: its
  // id and mirrored weight go straight from the span to its bucket slot,
  // then the stack is cut back to its accepted prefix. The load snaps to
  // the accepted bookkeeping instead of subtracting the evictees' weights,
  // as TaskArena::evict_unaccepted does.
  records_.resize(k);
  std::uint32_t* cursor = chunk_offsets_.data();
  const Node* to = dst.data();
  for (const Node r : from) {
    const std::uint32_t first = a.accepted_count_[r];
    const std::uint32_t count = a.count_[r];
    const TaskId* ids = a.ids_.data() + a.begin_[r];
    const double* w = a.weights_.data() + a.begin_[r];
    for (std::uint32_t i = first; i < count; ++i, ++to) {
      records_[cursor[*to / kBlockWidth]++] = {*to, ids[i], w[i]};
    }
    a.live_ -= count - first;
    a.count_[r] = first;
    a.load_[r] = a.accepted_load_[r];
  }
}

void BatchScatter::list_blocks(std::size_t chunks, std::size_t blocks) {
  // Block-major exclusive prefix sums turn the counts into each chunk's
  // first record in each block, so the bucketing is stable. The non-empty
  // blocks are listed, and cut into runs of whole blocks of at least
  // kShardMovers records.
  std::size_t running = 0;
  std::size_t touch = 0;
  std::size_t run = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t begin = running;
    for (std::size_t c = 0; c < chunks; ++c) {
      std::uint32_t& slot = chunk_offsets_[c * blocks + b];
      const std::uint32_t count = slot;
      slot = static_cast<std::uint32_t>(running);
      running += count;
    }
    if (running == begin) continue;
    blocks_.push_back({begin, running, touch, touch});
    // Room for every distinct destination, plus the one slot the count
    // pass's unconditional store may write past the last of them.
    touch += std::min<std::size_t>(running - begin, kBlockWidth) + 1;
    run += running - begin;
    if (run >= kShardMovers) {
      shard_begin_.push_back(blocks_.size());
      run = 0;
    }
  }
  if (shard_begin_.back() != blocks_.size()) {
    shard_begin_.push_back(blocks_.size());
  }
  touched_.resize(touch);
  arrivals_.resize(touch);
  moved_from_.resize(touch);
}

void BatchScatter::count_block(std::size_t j) {
  Block& b = blocks_[j];
  // Arrivals per block slot; touched_ lists each destination once. The
  // store is unconditional and only a first arrival keeps it: a branch on
  // it would mispredict on every fresh destination.
  std::array<std::uint32_t, kBlockWidth> arrivals{};
  std::size_t t = b.touch_begin;
  for (std::size_t i = b.rec_begin; i < b.rec_end; ++i) {
    const Node r = records_[i].dst;
    touched_[t] = r;
    t += arrivals[r % kBlockWidth]++ == 0;
  }
  b.touch_end = t;
  for (std::size_t x = b.touch_begin; x < t; ++x) {
    arrivals_[x] = arrivals[touched_[x] % kBlockWidth];
    moved_from_[x] = TaskArena::kStayed;
  }
}

void BatchScatter::grow_spans(TaskArena& arena) {
  TaskArena& a = arena;
  std::size_t j = 0;
  try {
    for (; j < blocks_.size(); ++j) {
      const Block& b = blocks_[j];
      // Grow every touched span once, to at least its final size. A grow
      // may compact the slab, which moves every span and re-slacks it to
      // its count, undoing the sizing of spans checked earlier in this
      // pass: repeat the pass until it compacts nothing. A compaction
      // leaves no dead slots, and a 2x relocation adds no more dead slots
      // than reserved ones, so the repeat never compacts — and a pass can
      // compact only at its first relocation, before any span copy below
      // is pending. Relocation only books the new span here; the fill
      // shard copies the old contents over.
      std::uint64_t compactions = 0;
      do {
        compactions = a.compactions_;
        for (std::size_t x = b.touch_begin; x < b.touch_end; ++x) {
          const Node r = touched_[x];
          const std::size_t need = std::size_t{a.count_[r]} + arrivals_[x];
          if (need <= a.cap_[r]) continue;
          moved_from_[x] = a.relocate(r, need);
        }
      } while (a.compactions_ != compactions);
      // Count the arrivals in now: a compaction in a later block then
      // sizes and copies these spans as if they were already filled.
      for (std::size_t x = b.touch_begin; x < b.touch_end; ++x) {
        a.count_[touched_[x]] += arrivals_[x];
      }
      a.live_ += b.rec_end - b.rec_begin;
    }
    a.fit_slab();
  } catch (...) {
    // Nothing is filled yet: taking the arrivals out again and copying the
    // relocated spans over leaves every stack and load as it was (grown
    // spans keep their new room). Blocks after j were never touched.
    bool fitted = false;
    for (std::size_t g = 0; g <= j; ++g) {
      const Block& b = blocks_[g];
      for (std::size_t x = b.touch_begin; x < b.touch_end; ++x) {
        const Node r = touched_[x];
        if (g < j) a.count_[r] -= arrivals_[x];
        if (moved_from_[x] == TaskArena::kStayed) continue;
        if (!fitted) a.fit_slab();
        fitted = true;
        a.move_span(r, moved_from_[x], a.count_[r]);
      }
      if (g < j) a.live_ -= b.rec_end - b.rec_begin;
    }
    throw;
  }
}

template <class Accept>
void BatchScatter::fill_block(TaskArena& arena, std::size_t j,
                              const Accept& accept) const {
  TaskArena& a = arena;
  const Block& b = blocks_[j];
  // Finish the block's relocations, then point each block slot at the
  // span end before the arrivals.
  std::array<std::size_t, kBlockWidth> cursor{};
  for (std::size_t x = b.touch_begin; x < b.touch_end; ++x) {
    const Node r = touched_[x];
    const std::size_t live = std::size_t{a.count_[r]} - arrivals_[x];
    if (moved_from_[x] != TaskArena::kStayed) {
      a.move_span(r, moved_from_[x], live);
    }
    cursor[r % kBlockWidth] = std::size_t{a.begin_[r]} + live;
  }

  // Fill in record (= index) order.
  for (std::size_t i = b.rec_begin; i < b.rec_end; ++i) {
    const Record& rec = records_[i];
    const Node r = rec.dst;
    const std::size_t slot = cursor[r % kBlockWidth]++;
    a.ids_[slot] = rec.id;
    a.weights_[slot] = rec.w;
    accept(a, r, slot - a.begin_[r], rec.w);
    a.load_[r] += rec.w;
  }
}

}  // namespace tlb::mem
