#include "graph/io.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <limits>

#include "util/common.hpp"
#include "util/threadpool.hpp"

namespace lazygraph::io {

namespace {
constexpr std::uint64_t kMagic = 0x4c415a5947524148ULL;  // "LAZYGRAH"

std::ifstream open_in(const std::string& path, std::ios::openmode mode) {
  std::ifstream f(path, mode);
  if (!f) throw std::runtime_error("cannot open for reading: " + path);
  return f;
}

std::ofstream open_out(const std::string& path, std::ios::openmode mode) {
  std::ofstream f(path, mode);
  if (!f) throw std::runtime_error("cannot open for writing: " + path);
  return f;
}

// --- chunk-parallel edge-list parsing ---

bool is_line_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

// One chunk's parse output. `error` holds the chunk's first malformed line
// (empty = clean); errors are reported from the lowest-index failing chunk,
// which is exactly the file's first malformed line.
struct ChunkParse {
  std::vector<Edge> edges;
  vid_t max_id = 0;
  std::string error;
};

// Parses one "src dst [weight]" line (istream-compatible semantics: ids are
// read as uint64 then narrowed to vid_t, a missing or unparsable weight
// defaults to 1.0, trailing content is ignored).
bool parse_line(const char* begin, const char* end, ChunkParse& out) {
  const auto skip_ws = [&](const char* p) {
    while (p < end && is_line_space(*p)) ++p;
    return p;
  };
  const char* p = skip_ws(begin);
  std::uint64_t src = 0, dst = 0;
  auto r = std::from_chars(p, end, src);
  if (r.ec != std::errc{}) return false;
  p = skip_ws(r.ptr);
  r = std::from_chars(p, end, dst);
  if (r.ec != std::errc{}) return false;
  p = skip_ws(r.ptr);
  double weight = 1.0;
  if (p < end) {
    const auto wr = std::from_chars(p, end, weight);
    if (wr.ec != std::errc{}) weight = 1.0;
  }
  out.edges.push_back({static_cast<vid_t>(src), static_cast<vid_t>(dst),
                       static_cast<float>(weight)});
  out.max_id = std::max({out.max_id, static_cast<vid_t>(src),
                         static_cast<vid_t>(dst)});
  return true;
}

void parse_chunk(std::string_view text, std::size_t begin, std::size_t end,
                 ChunkParse& out) {
  std::size_t pos = begin;
  while (pos < end) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    // Comment / blank handling matches the line-by-line reader exactly.
    if (nl > pos && text[pos] != '#') {
      if (!parse_line(text.data() + pos, text.data() + nl, out)) {
        out.error = "malformed edge-list line: " +
                    std::string(text.substr(pos, nl - pos));
        return;
      }
    }
    pos = nl + 1;
  }
}

}  // namespace

Graph read_edge_list_text(std::string_view text, const ReadOptions& opts) {
  const std::size_t threads = resolve_threads(opts.threads);
  // Chunk boundaries snap forward to the next line start, so no line is ever
  // split, dropped, or parsed twice; the boundary rule depends only on
  // (text, chunk count) and per-chunk outputs concatenate in chunk order,
  // making the result identical to a single-chunk parse.
  std::size_t nchunks = std::min<std::size_t>(threads, text.size());
  if (nchunks == 0) nchunks = 1;
  std::vector<std::size_t> start(nchunks + 1, text.size());
  start[0] = 0;
  for (std::size_t c = 1; c < nchunks; ++c) {
    std::size_t p = c * text.size() / nchunks;
    if (p < start[c - 1]) p = start[c - 1];
    if (p == 0) {
      start[c] = 0;
      continue;
    }
    const std::size_t nl = text.find('\n', p - 1);
    start[c] = nl == std::string_view::npos ? text.size() : nl + 1;
  }

  std::vector<ChunkParse> chunks(nchunks);
  parallel_ranges(nchunks, nchunks, [&](std::size_t, std::size_t lo,
                                        std::size_t hi) {
    for (std::size_t c = lo; c < hi; ++c) {
      if (start[c] < start[c + 1]) {
        parse_chunk(text, start[c], start[c + 1], chunks[c]);
      }
    }
  });

  for (const ChunkParse& c : chunks) {
    if (!c.error.empty()) throw std::runtime_error(c.error);
  }

  std::size_t total = 0;
  for (const ChunkParse& c : chunks) total += c.edges.size();
  std::vector<Edge> edges;
  edges.reserve(total);
  vid_t max_id = 0;
  for (ChunkParse& c : chunks) {
    edges.insert(edges.end(), c.edges.begin(), c.edges.end());
    max_id = std::max(max_id, c.max_id);
  }
  const vid_t n = edges.empty() ? 0 : max_id + 1;
  return Graph(n, std::move(edges));
}

Graph read_edge_list(std::istream& in, const ReadOptions& opts) {
  std::string buf{std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>()};
  return read_edge_list_text(buf, opts);
}

Graph read_edge_list_file(const std::string& path, const ReadOptions& opts) {
  auto f = open_in(path, std::ios::in | std::ios::binary);
  f.seekg(0, std::ios::end);
  const auto size = f.tellg();
  f.seekg(0, std::ios::beg);
  std::string buf;
  if (size > 0) {
    buf.resize(static_cast<std::size_t>(size));
    f.read(buf.data(), size);
  }
  return read_edge_list_text(buf, opts);
}

void write_edge_list(const Graph& g, std::ostream& out) {
  out << "# lazygraph edge list: " << g.num_vertices() << " vertices, "
      << g.num_edges() << " edges\n";
  for (const Edge& e : g.edges()) {
    out << e.src << ' ' << e.dst << ' ' << e.weight << '\n';
  }
}

void write_edge_list_file(const Graph& g, const std::string& path) {
  auto f = open_out(path, std::ios::out);
  write_edge_list(g, f);
}

void write_binary(const Graph& g, std::ostream& out) {
  const std::uint64_t n = g.num_vertices();
  const std::uint64_t m = g.num_edges();
  out.write(reinterpret_cast<const char*>(&kMagic), sizeof(kMagic));
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(reinterpret_cast<const char*>(&m), sizeof(m));
  static_assert(sizeof(Edge) == 12, "Edge layout change breaks binary format");
  out.write(reinterpret_cast<const char*>(g.edges().data()),
            static_cast<std::streamsize>(m * sizeof(Edge)));
}

void write_binary_file(const Graph& g, const std::string& path) {
  auto f = open_out(path, std::ios::binary);
  write_binary(g, f);
}

Graph read_binary(std::istream& in) {
  std::uint64_t magic = 0, n = 0, m = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (!in || magic != kMagic)
    throw std::runtime_error("read_binary: bad magic");
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  in.read(reinterpret_cast<char*>(&m), sizeof(m));
  if (!in) throw std::runtime_error("read_binary: truncated header");
  // Header validation: a lying header must fail cleanly here instead of
  // producing a graph whose edges index out of bounds (or a payload size
  // that overflows the read below).
  if (n > std::numeric_limits<vid_t>::max()) {
    throw std::runtime_error("read_binary: vertex count exceeds vid_t range");
  }
  constexpr std::uint64_t kMaxEdges =
      static_cast<std::uint64_t>(
          std::numeric_limits<std::streamsize>::max()) /
      sizeof(Edge);
  if (m > kMaxEdges) {
    throw std::runtime_error("read_binary: edge count overflows payload size");
  }
  // Slab reads: never trust the header for one giant allocation — a
  // truncated or hostile file fails on the first missing slab instead of
  // after a multi-gigabyte resize.
  constexpr std::uint64_t kSlabEdges = 1 << 20;
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(std::min(m, kSlabEdges)));
  const vid_t num_vertices = static_cast<vid_t>(n);
  for (std::uint64_t read_so_far = 0; read_so_far < m;) {
    const std::uint64_t batch = std::min(kSlabEdges, m - read_so_far);
    const std::size_t old_size = edges.size();
    edges.resize(old_size + static_cast<std::size_t>(batch));
    in.read(reinterpret_cast<char*>(edges.data() + old_size),
            static_cast<std::streamsize>(batch * sizeof(Edge)));
    if (!in) throw std::runtime_error("read_binary: truncated edge data");
    for (std::size_t i = old_size; i < edges.size(); ++i) {
      if (edges[i].src >= num_vertices || edges[i].dst >= num_vertices) {
        throw std::runtime_error(
            "read_binary: edge endpoint out of declared vertex range");
      }
    }
    read_so_far += batch;
  }
  return Graph(num_vertices, std::move(edges));
}

Graph read_binary_file(const std::string& path) {
  auto f = open_in(path, std::ios::binary);
  return read_binary(f);
}

}  // namespace lazygraph::io
