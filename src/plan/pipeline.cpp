#include "plan/pipeline.hpp"

#include <charconv>
#include <cstdio>
#include <stdexcept>

#include "engine/run.hpp"

namespace lazygraph::plan {

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument("pipeline: " + what);
}

// Shortest round-trip decimal form, so parse(to_string()) is exact and the
// canonical text stays readable ("0.001", not "1.00000000000000002e-03").
std::string fmt_double(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{}) bad("unprintable double");
  return std::string(buf, end);
}

std::uint64_t parse_uint(const std::string& s) {
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size())
    bad("expected an unsigned integer, got '" + s + "'");
  return v;
}

double parse_double(const std::string& s) {
  double v = 0.0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size())
    bad("expected a number, got '" + s + "'");
  return v;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    out.push_back(s.substr(start, pos - start));
    if (pos == std::string::npos) return out;
    start = pos + 1;
  }
}

}  // namespace

const char* to_string(AlgoKind a) {
  switch (a) {
    case AlgoKind::kSssp: return "sssp";
    case AlgoKind::kBfs: return "bfs";
    case AlgoKind::kCc: return "cc";
    case AlgoKind::kKcore: return "kcore";
    case AlgoKind::kPagerank: return "pagerank";
    case AlgoKind::kWidest: return "widest";
    case AlgoKind::kDiffusion: return "diffusion";
  }
  return "?";
}

AlgoKind algo_kind_from_string(const std::string& s) {
  for (int i = 0; i < kNumAlgoKinds; ++i) {
    const auto a = static_cast<AlgoKind>(i);
    if (s == to_string(a)) return a;
  }
  throw std::invalid_argument("unknown algorithm: " + s);
}

bool needs_symmetrized(AlgoKind a) {
  return a == AlgoKind::kCc || a == AlgoKind::kKcore;
}

std::string StageSpec::to_string() const {
  std::string out = plan::to_string(algo);
  // Appended piecewise: `"(" + std::to_string(k)` trips GCC 12's -O3
  // -Wrestrict false positive (GCC bug 105651).
  const auto args = [&out](const std::string& a) {
    out += '(';
    out += a;
    out += ')';
  };
  switch (algo) {
    case AlgoKind::kSssp:
    case AlgoKind::kBfs:
    case AlgoKind::kWidest:
      args(std::to_string(source));
      break;
    case AlgoKind::kCc:
      if (has_source) args(std::to_string(source));
      break;
    case AlgoKind::kKcore:
      args(std::to_string(k));
      break;
    case AlgoKind::kPagerank:
      args(fmt_double(tol));
      break;
    case AlgoKind::kDiffusion:
      args(std::to_string(source) + "," + fmt_double(alpha) + "," +
           fmt_double(tol));
      break;
  }
  if (!engine.empty()) out += "@" + engine;
  return out;
}

Pipeline& Pipeline::kcore(std::uint32_t k) {
  return stage({.algo = AlgoKind::kKcore, .k = k});
}
Pipeline& Pipeline::cc() { return stage({.algo = AlgoKind::kCc}); }
Pipeline& Pipeline::cc(vid_t scope_seed) {
  return stage(
      {.algo = AlgoKind::kCc, .has_source = true, .source = scope_seed});
}
Pipeline& Pipeline::pagerank(double tol) {
  return stage({.algo = AlgoKind::kPagerank, .tol = tol});
}
Pipeline& Pipeline::sssp(vid_t source) {
  return stage({.algo = AlgoKind::kSssp, .has_source = true, .source = source});
}
Pipeline& Pipeline::bfs(vid_t source) {
  return stage({.algo = AlgoKind::kBfs, .has_source = true, .source = source});
}
Pipeline& Pipeline::widest(vid_t source) {
  return stage(
      {.algo = AlgoKind::kWidest, .has_source = true, .source = source});
}
Pipeline& Pipeline::diffusion(vid_t source, double alpha, double tol) {
  return stage({.algo = AlgoKind::kDiffusion,
                .has_source = true,
                .source = source,
                .tol = tol,
                .alpha = alpha});
}

Pipeline& Pipeline::stage(StageSpec s) {
  stages_.push_back(std::move(s));
  return *this;
}

Pipeline& Pipeline::on(const std::string& engine) {
  if (stages_.empty()) bad("on() before any stage");
  // Canonicalize through the engine-name round trip so "sync" and
  // "powergraph-sync" record identical stages (and identical dedup keys).
  stages_.back().engine =
      engine::to_string(engine::engine_kind_from_string(engine));
  return *this;
}

std::string Pipeline::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    if (i) out += "|";
    out += stages_[i].to_string();
  }
  return out;
}

Pipeline Pipeline::parse(const std::string& text) {
  if (text.empty()) bad("empty pipeline");
  for (const char c : text) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
      bad("whitespace is not allowed (the pipeline text is one token)");
  }
  Pipeline p;
  for (std::string tok : split(text, '|')) {
    if (tok.empty()) bad("empty stage");
    std::string engine;
    if (const std::size_t at = tok.find('@'); at != std::string::npos) {
      engine = tok.substr(at + 1);
      tok.resize(at);
    }
    std::string name = tok;
    std::vector<std::string> args;
    if (const std::size_t lp = tok.find('('); lp != std::string::npos) {
      if (tok.back() != ')') bad("missing ')' in '" + tok + "'");
      name = tok.substr(0, lp);
      const std::string inner = tok.substr(lp + 1, tok.size() - lp - 2);
      if (inner.empty()) bad("empty argument list in '" + tok + "'");
      args = split(inner, ',');
    }
    const AlgoKind algo = algo_kind_from_string(name);
    StageSpec s{.algo = algo};
    auto expect_args = [&](std::size_t lo, std::size_t hi) {
      if (args.size() < lo || args.size() > hi)
        bad("wrong argument count for '" + name + "'");
    };
    switch (algo) {
      case AlgoKind::kSssp:
      case AlgoKind::kBfs:
      case AlgoKind::kWidest:
        expect_args(1, 1);
        s.has_source = true;
        s.source = static_cast<vid_t>(parse_uint(args[0]));
        break;
      case AlgoKind::kCc:
        expect_args(0, 1);
        if (args.size() == 1) {
          s.has_source = true;
          s.source = static_cast<vid_t>(parse_uint(args[0]));
        }
        break;
      case AlgoKind::kKcore:
        expect_args(1, 1);
        s.k = static_cast<std::uint32_t>(parse_uint(args[0]));
        break;
      case AlgoKind::kPagerank:
        expect_args(1, 1);
        s.tol = parse_double(args[0]);
        break;
      case AlgoKind::kDiffusion:
        expect_args(1, 3);
        s.has_source = true;
        s.source = static_cast<vid_t>(parse_uint(args[0]));
        if (args.size() >= 2) s.alpha = parse_double(args[1]);
        if (args.size() >= 3) s.tol = parse_double(args[2]);
        break;
    }
    p.stage(std::move(s));
    if (!engine.empty()) p.on(engine);
  }
  return p;
}

}  // namespace lazygraph::plan
