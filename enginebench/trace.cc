#include "trace.h"

#include <cstdio>
#include <filesystem>

namespace enginebench {

int64_t Tracer::Begin(std::string name, int64_t parent, int64_t op) {
  if (!on_) return -1;
  const int64_t id = static_cast<int64_t>(spans_.size());
  spans_.push_back({id, parent, op, std::move(name), Now(), -1, {}});
  return id;
}

int64_t Tracer::End(int64_t id) {
  if (!on_ || id < 0) return 0;
  Span& s = spans_[id];
  s.end_ns = Now();
  return s.end_ns - s.start_ns;
}

void Tracer::AddChild(std::string name, int64_t parent, int64_t op,
                      int64_t duration_ns) {
  if (!on_ || parent < 0) return;
  const int64_t start = spans_[parent].start_ns;
  spans_.push_back({static_cast<int64_t>(spans_.size()), parent, op,
                    std::move(name), start, start + duration_ns, {}});
}

void Tracer::AddCounter(int64_t id, const char* name, int64_t delta) {
  if (!on_ || id < 0) return;
  spans_[id].counters.emplace_back(name, delta);
}

bool Tracer::Write(const std::string& path) const {
  if (!on_) return true;
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%lld,\"parent\":%lld,\"op\":%lld,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld",
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<long long>(s.op), s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
    for (const auto& [name, delta] : s.counters) {
      std::fprintf(f, ",\"%s\":%lld", name, static_cast<long long>(delta));
    }
    std::fprintf(f, "}\n");
  }
  return std::fclose(f) == 0;
}

}  // namespace enginebench
