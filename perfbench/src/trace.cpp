#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> next_tracer_id{1};

/// The calling thread's buffer, remembered per tracer id (a thread may
/// outlive one tracer and record into the next).
thread_local std::uint64_t tls_owner = 0;
thread_local void* tls_spans = nullptr;

}  // namespace

std::int64_t self_time(std::int64_t start, std::int64_t end,
                       std::vector<std::pair<std::int64_t, std::int64_t>> children) {
  if (end <= start) return 0;
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0;
  std::int64_t reach = start;  // everything before `reach` is accounted for
  for (auto [child_start, child_end] : children) {
    child_start = std::max(child_start, reach);
    child_end = std::min(child_end, end);
    if (child_end <= child_start) continue;
    covered += child_end - child_start;
    reach = child_end;
  }
  return (end - start) - covered;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), id_(next_tracer_id.fetch_add(1)) {}

Tracer::ThreadSpans& Tracer::local() {
  if (tls_owner != id_) {
    const std::lock_guard lock(mutex_);
    threads_.emplace_back();
    threads_.back().records.reserve(1 << 16);
    tls_owner = id_;
    tls_spans = &threads_.back();
  }
  return *static_cast<ThreadSpans*>(tls_spans);
}

Span::Span(Tracer& tracer, const char* name, std::uint64_t request) {
  if (!tracer.enabled()) return;
  spans_ = &tracer.local();
  const std::uint32_t parent =
      spans_->open.empty() ? Tracer::kNoParent : spans_->open.back();
  index_ = static_cast<std::uint32_t>(spans_->records.size());
  spans_->records.push_back({name, request, parent, now_ns(), 0});
  spans_->open.push_back(index_);
}

Span::~Span() {
  if (spans_ == nullptr) return;
  spans_->records[index_].end_ns = now_ns();
  spans_->open.pop_back();
}

std::map<std::string, SpanSummary> Tracer::summarize() const {
  const std::lock_guard lock(mutex_);
  std::map<std::string, SpanSummary> summary;
  for (const ThreadSpans& thread : threads_) {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
        thread.records.size());
    for (const Record& record : thread.records) {
      if (record.parent != kNoParent) {
        children[record.parent].emplace_back(record.start_ns, record.end_ns);
      }
    }
    for (std::size_t i = 0; i < thread.records.size(); ++i) {
      const Record& record = thread.records[i];
      SpanSummary& entry = summary[record.name];
      ++entry.count;
      entry.total_us += static_cast<double>(record.end_ns - record.start_ns) / 1e3;
      entry.self_us += static_cast<double>(self_time(record.start_ns, record.end_ns,
                                                     std::move(children[i]))) /
                       1e3;
    }
  }
  return summary;
}

std::uint64_t Tracer::span_count() const {
  const std::lock_guard lock(mutex_);
  std::uint64_t count = 0;
  for (const ThreadSpans& thread : threads_) count += thread.records.size();
  return count;
}

void Tracer::write_csv(const std::filesystem::path& path) const {
  const std::lock_guard lock(mutex_);
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::trunc);
  out << "name,request,thread,parent,start_ns,end_ns\n";
  std::size_t thread_index = 0;
  for (const ThreadSpans& thread : threads_) {
    for (const Record& record : thread.records) {
      out << record.name << ',' << record.request << ',' << thread_index << ',';
      if (record.parent == kNoParent) {
        out << -1;
      } else {
        out << record.parent;
      }
      out << ',' << record.start_ns << ',' << record.end_ns << '\n';
    }
    ++thread_index;
  }
}

}  // namespace perfbench
