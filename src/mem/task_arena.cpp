#include "tlb/mem/task_arena.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

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
  std::size_t new_cap = std::max(kMinCap, 2 * std::size_t{cap_[r]});
  new_cap = std::max(new_cap, min_cap);
  // Abandoning the old span leaves a hole; once holes dominate the slab,
  // repack before growing so memory stays O(live). The constant keeps tiny
  // arenas from compacting on every relocation. Compaction re-slacks every
  // span, so it may already have made room for this push — relocating
  // anyway would punch a fresh hole into the just-packed slab.
  if (used_ - reserved_ > reserved_ + 1024) {
    compact();
    if (cap_[r] >= min_cap) return;
  }
  if (used_ + new_cap > kMaxSlots) {
    throw std::length_error("TaskArena: slab exceeds 32-bit span offsets");
  }
  const std::size_t old_begin = begin_[r];
  const std::size_t new_begin = used_;
  used_ += new_cap;
  ids_.resize(used_);
  weights_.resize(used_);
  std::copy_n(ids_.begin() + static_cast<std::ptrdiff_t>(old_begin), count_[r],
              ids_.begin() + static_cast<std::ptrdiff_t>(new_begin));
  std::copy_n(weights_.begin() + static_cast<std::ptrdiff_t>(old_begin),
              count_[r],
              weights_.begin() + static_cast<std::ptrdiff_t>(new_begin));
  reserved_ += new_cap - cap_[r];
  begin_[r] = static_cast<std::uint32_t>(new_begin);
  cap_[r] = static_cast<std::uint32_t>(new_cap);
  ++relocations_;
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
  for (std::size_t i = keep; i < count_[r]; ++i) {
    out.push_back(ids[i]);
    load_[r] -= w[i];
  }
  live_ -= count_[r] - keep;
  count_[r] = static_cast<std::uint32_t>(keep);
  accepted_count_[r] =
      std::min(accepted_count_[r], static_cast<std::uint32_t>(keep));
  accepted_load_[r] = std::min(accepted_load_[r], load_[r]);
}

void TaskArena::remove_marked(Node r, const std::vector<std::uint8_t>& leave,
                              std::vector<TaskId>& out) {
  remove_marked(r, leave.data(), leave.size(), out);
}

void TaskArena::remove_marked(Node r, const std::uint8_t* leave,
                              std::size_t len, std::vector<TaskId>& out) {
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

void TaskArena::clear(Node r) noexcept {
  live_ -= count_[r];
  count_[r] = 0;
  load_[r] = 0.0;
  accepted_load_[r] = 0.0;
  accepted_count_[r] = 0;
}

void TaskArena::clear_all() noexcept {
  std::fill(count_.begin(), count_.end(), 0);
  std::fill(load_.begin(), load_.end(), 0.0);
  std::fill(accepted_load_.begin(), accepted_load_.end(), 0.0);
  std::fill(accepted_count_.begin(), accepted_count_.end(), 0);
  live_ = 0;
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

double TaskArena::psi(Node r, double threshold, double w_max) const noexcept {
  return std::ceil(phi(r, threshold) / w_max);
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

void BatchPlacer::place(TaskArena& arena, const tasks::TaskSet& ts,
                        const tasks::Placement& placement) {
  build(arena, ts, placement, Mode::kPlain, -1.0, nullptr);
}

void BatchPlacer::place(TaskArena& arena, const tasks::TaskSet& ts,
                        const tasks::Placement& placement, double threshold) {
  if (threshold < 0.0) {
    build(arena, ts, placement, Mode::kPlain, -1.0, nullptr);
  } else {
    build(arena, ts, placement, Mode::kUniform, threshold, nullptr);
  }
}

void BatchPlacer::place(TaskArena& arena, const tasks::TaskSet& ts,
                        const tasks::Placement& placement,
                        const std::vector<double>& thresholds) {
  if (thresholds.empty()) {
    build(arena, ts, placement, Mode::kPlain, -1.0, nullptr);
  } else {
    build(arena, ts, placement, Mode::kPerResource, 0.0, &thresholds);
  }
}

void BatchPlacer::build(TaskArena& arena, const tasks::TaskSet& ts,
                        const tasks::Placement& placement, Mode mode,
                        double threshold,
                        const std::vector<double>* thresholds) {
  TaskArena& a = arena;
  const Node n = a.num_resources();
  const std::size_t m = placement.size();
  if (m != ts.size()) {
    throw std::invalid_argument("BatchPlacer: placement size mismatch");
  }
  if (m > TaskArena::kMaxSlots) {
    throw std::length_error("BatchPlacer: task count exceeds 32-bit offsets");
  }
  if (mode == Mode::kPerResource && thresholds->size() != n) {
    throw std::invalid_argument("BatchPlacer: threshold vector size mismatch");
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
  // TaskSet's weights verbatim, the load is the TaskSet total (bitwise equal
  // to the sequential sum — TaskSet accumulates in the same id order), and
  // the accepted prefix ends at the first rejection, so the acceptance scan
  // stops early instead of walking all m tasks.
  if (m > 0 && a.count_[placement[0]] == m) {
    const Node r = placement[0];
    const std::size_t b = a.begin_[r];
    for (std::size_t i = 0; i < m; ++i) {
      a.ids_[b + i] = static_cast<TaskId>(i);
    }
    std::copy_n(ts.weights().data(), m, a.weights_.begin() +
                                            static_cast<std::ptrdiff_t>(b));
    a.load_[r] = ts.total_weight();
    if (mode != Mode::kPlain) {
      const double T = mode == Mode::kUniform ? threshold : (*thresholds)[r];
      const double* wts = ts.weights().data();
      double h = 0.0;
      std::size_t accepted = 0;
      while (accepted < m && h + wts[accepted] <= T) {
        h += wts[accepted];
        ++accepted;
      }
      a.accepted_count_[r] = static_cast<std::uint32_t>(accepted);
      a.accepted_load_[r] = h;
    }
    return;
  }

  // Pass 3: fill in task-id order — the stable counting sort reproduces the
  // sequential push order (and hence acceptance decisions) exactly. cursor_
  // already points at each span's first slot.
  const double* w = ts.weights().data();
  switch (mode) {
    case Mode::kPlain:
      for (std::size_t i = 0; i < m; ++i) {
        const Node r = placement[i];
        const std::size_t slot = cursor_[r]++;
        a.ids_[slot] = static_cast<TaskId>(i);
        a.weights_[slot] = w[i];
        a.load_[r] += w[i];
      }
      break;
    case Mode::kUniform:
      for (std::size_t i = 0; i < m; ++i) {
        const Node r = placement[i];
        const std::size_t slot = cursor_[r]++;
        const std::size_t pos = slot - a.begin_[r];
        a.ids_[slot] = static_cast<TaskId>(i);
        a.weights_[slot] = w[i];
        if (a.accepted_count_[r] == pos && a.load_[r] + w[i] <= threshold) {
          ++a.accepted_count_[r];
          a.accepted_load_[r] += w[i];
        }
        a.load_[r] += w[i];
      }
      break;
    case Mode::kPerResource:
      for (std::size_t i = 0; i < m; ++i) {
        const Node r = placement[i];
        const std::size_t slot = cursor_[r]++;
        const std::size_t pos = slot - a.begin_[r];
        a.ids_[slot] = static_cast<TaskId>(i);
        a.weights_[slot] = w[i];
        if (a.accepted_count_[r] == pos &&
            a.load_[r] + w[i] <= (*thresholds)[r]) {
          ++a.accepted_count_[r];
          a.accepted_load_[r] += w[i];
        }
        a.load_[r] += w[i];
      }
      break;
  }
}

// ---------------------------------------------------------------------------
// BatchScatter
// ---------------------------------------------------------------------------

std::size_t BatchScatter::bucket(const TaskArena& arena,
                                 const tasks::TaskSet& ts,
                                 const std::vector<Node>& dst,
                                 const std::vector<TaskId>& ids,
                                 const Rule& rule) {
  const Node n = arena.num_resources();
  const std::size_t k = dst.size();
  if (ids.size() != k) {
    throw std::invalid_argument("BatchScatter: dst/ids size mismatch");
  }
  if (rule.mode == Mode::kPerResource && rule.thresholds->size() != n) {
    throw std::invalid_argument("BatchScatter: threshold vector size mismatch");
  }
  if (k == 0) return 0;

  // Pass 1: count per block, validating every destination before the
  // arena is touched.
  const std::size_t blocks = (std::size_t{n} + kBlockWidth - 1) / kBlockWidth;
  block_end_.assign(blocks, 0);
  for (const Node r : dst) {
    if (r >= n) {
      throw std::invalid_argument("BatchScatter: resource out of range");
    }
    ++block_end_[r / kBlockWidth];
  }
  // Exclusive prefix sum: block_end_[b] becomes block b's first record and
  // serves as its write cursor, ending at block b's end.
  std::size_t running = 0;
  for (std::size_t& e : block_end_) {
    const std::size_t c = e;
    e = running;
    running += c;
  }

  // Pass 2: stable bucketing in index order, weights looked up once here so
  // the fill never indirects through the TaskSet.
  records_.resize(k);
  const double* w = ts.weights().data();
  for (std::size_t i = 0; i < k; ++i) {
    records_[block_end_[dst[i] / kBlockWidth]++] = {dst[i], ids[i], w[ids[i]]};
  }
  return blocks;
}

std::size_t BatchScatter::fill_block(TaskArena& arena, std::size_t lo,
                                     std::size_t hi, const Rule& rule) {
  TaskArena& a = arena;
  // Arrivals per destination; touched_ lists each destination once.
  std::size_t touched = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    const Node r = records_[i].dst;
    if (arrivals_[r % kBlockWidth]++ == 0) touched_[touched++] = r;
  }

  // Grow every touched span once, to at least its final size. A grow may
  // compact the slab, which moves every span and re-slacks it to its live
  // count, undoing the sizing of spans checked earlier in this pass: repeat
  // the pass until it compacts nothing. A compaction leaves no dead slots,
  // and a 2x relocation adds no more dead slots than reserved ones, so the
  // repeat never compacts.
  std::uint64_t compactions = 0;
  do {
    compactions = a.compactions_;
    for (std::size_t t = 0; t < touched; ++t) {
      const Node r = touched_[t];
      const std::size_t need =
          std::size_t{a.count_[r]} + arrivals_[r % kBlockWidth];
      if (need > a.cap_[r]) a.grow(r, need);
    }
  } while (a.compactions_ != compactions);

  // Fill cursors only now that no grow can move a span any more.
  for (std::size_t t = 0; t < touched; ++t) {
    const Node r = touched_[t];
    cursor_[r % kBlockWidth] = std::size_t{a.begin_[r]} + a.count_[r];
  }

  // Fill in record (= index) order. The acceptance test reads the span
  // position the task lands at, which is count(r) at the time a sequential
  // push_accepting would have run.
  switch (rule.mode) {
    case Mode::kPlain:
      for (std::size_t i = lo; i < hi; ++i) {
        const Record& rec = records_[i];
        const std::size_t slot = cursor_[rec.dst % kBlockWidth]++;
        a.ids_[slot] = rec.id;
        a.weights_[slot] = rec.w;
        a.load_[rec.dst] += rec.w;
      }
      break;
    case Mode::kUniform:
    case Mode::kPerResource:
      for (std::size_t i = lo; i < hi; ++i) {
        const Record& rec = records_[i];
        const Node r = rec.dst;
        const std::size_t slot = cursor_[r % kBlockWidth]++;
        const double T = rule.mode == Mode::kUniform ? rule.threshold
                                                     : (*rule.thresholds)[r];
        a.ids_[slot] = rec.id;
        a.weights_[slot] = rec.w;
        if (a.accepted_count_[r] == slot - a.begin_[r] &&
            a.load_[r] + rec.w <= T) {
          ++a.accepted_count_[r];
          a.accepted_load_[r] += rec.w;
        }
        a.load_[r] += rec.w;
      }
      break;
  }

  for (std::size_t t = 0; t < touched; ++t) {
    const Node r = touched_[t];
    a.count_[r] += arrivals_[r % kBlockWidth];
    arrivals_[r % kBlockWidth] = 0;
  }
  a.live_ += hi - lo;
  return touched;
}

}  // namespace tlb::mem
