#include "tlb/obs/trace_event.hpp"

#include <fstream>
#include <stdexcept>

#include "tlb/obs/registry.hpp"
#include "tlb/util/json.hpp"

namespace tlb::obs {

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot open '" + path + "' for writing");
  }
  out << content;
  out.flush();
  if (!out) {
    throw std::runtime_error("write to '" + path + "' failed");
  }
}

namespace {

struct TlEntry {
  std::uint64_t writer_id;
  void* buffer;
};
thread_local std::vector<TlEntry> tl_buffers;

std::atomic<std::uint64_t> next_writer_id{1};

}  // namespace

TraceWriter::TraceWriter(std::size_t max_events)
    : id_(next_writer_id.fetch_add(1)),
      epoch_ns_(monotonic_ns()),
      max_events_(max_events) {}

TraceWriter::~TraceWriter() = default;

TraceWriter::Buffer* TraceWriter::local_buffer() {
  for (const TlEntry& e : tl_buffers) {
    if (e.writer_id == id_) return static_cast<Buffer*>(e.buffer);
  }
  Buffer* buf;
  {
    std::lock_guard lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buf = buffers_.back().get();
    buf->tid = static_cast<std::uint32_t>(buffers_.size() - 1);
  }
  tl_buffers.push_back(TlEntry{id_, buf});
  return buf;
}

void TraceWriter::complete(const char* name, std::uint64_t start_ns,
                           std::uint64_t dur_ns) {
  if (recorded_.fetch_add(1, std::memory_order_relaxed) >= max_events_) {
    recorded_.fetch_sub(1, std::memory_order_relaxed);
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::uint64_t ts =
      start_ns >= epoch_ns_ ? start_ns - epoch_ns_ : 0;
  local_buffer()->events.push_back(Event{name, ts, dur_ns});
}

std::size_t TraceWriter::events() const noexcept {
  return recorded_.load(std::memory_order_relaxed);
}

std::size_t TraceWriter::dropped() const noexcept {
  return dropped_.load(std::memory_order_relaxed);
}

std::string TraceWriter::json() const {
  std::lock_guard lock(mutex_);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& buf : buffers_) {
    // Thread-name metadata row so chrome://tracing labels the tracks.
    if (!first) out += ',';
    first = false;
    out += "{\"ph\":\"M\",\"pid\":0,\"tid\":" + std::to_string(buf->tid) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":\"tlb-thread-" +
           std::to_string(buf->tid) + "\"}}";
    for (const Event& e : buf->events) {
      out += ",{\"ph\":\"X\",\"pid\":0,\"tid\":" + std::to_string(buf->tid) +
             ",\"name\":" + util::Json::quote(e.name) + ",\"cat\":\"tlb\"" +
             ",\"ts\":" +
             util::Json::number(static_cast<double>(e.ts_ns) / 1000.0) +
             ",\"dur\":" +
             util::Json::number(static_cast<double>(e.dur_ns) / 1000.0) + "}";
    }
  }
  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"recorded\":" +
         std::to_string(recorded_.load(std::memory_order_relaxed)) +
         ",\"dropped\":" +
         std::to_string(dropped_.load(std::memory_order_relaxed)) + "}}";
  return out;
}

void TraceWriter::write(const std::string& path) const {
  write_text_file(path, json());
}

}  // namespace tlb::obs
