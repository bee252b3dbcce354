#include "spans.h"

#include <cstdio>
#include <stdexcept>

namespace layerbench {

namespace {

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace

double SpanRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanRecorder::begin(std::string name) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_us = now_us();
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanRecorder::end(int index) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("span closed out of order");
  }
  open_.pop_back();
  spans_[static_cast<std::size_t>(index)].end_us = now_us();
}

std::map<std::string, double> SpanRecorder::layer_self_seconds() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[layer_of(s.name)] += (s.end_us - s.start_us - child_us[i]) * 1e-6;
  }
  return out;
}

void SpanRecorder::write_chrome_json(
    std::ostream& os,
    const std::vector<std::pair<std::string, std::string>>& labels) const {
  os << "{\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"layerbench (host wall clock)\"}}";
  for (const auto& [key, value] : labels) {
    os << ",\n{\"name\":" << quoted(key)
       << ",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"value\":"
       << quoted(value) << "}}";
  }
  char buf[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << ",\n{\"name\":" << quoted(s.name) << ",\"cat\":"
       << quoted(layer_of(s.name)) << ",\"ph\":\"X\",\"pid\":1,\"tid\":0";
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f", s.start_us,
                  s.end_us - s.start_us);
    os << buf << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
       << "}}";
  }
  os << "\n]}\n";
}

}  // namespace layerbench
