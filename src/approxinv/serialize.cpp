// Binary (de)serialization for ApproxInverse.
//
// Format: magic "ERZI" + version, then n, perm, inv_perm, column table and
// pools, all little-endian native-width. Intended for same-machine caching,
// not as an interchange format. save() lays the pools out in descending j;
// load() accepts any layout whose columns lie inside the pools.
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "approxinv/approx_inverse.hpp"
#include "order/mindeg.hpp"

namespace er {

namespace {

constexpr char kMagic[4] = {'E', 'R', 'Z', 'I'};
constexpr std::uint32_t kVersion = 1;

[[noreturn]] void reject(const char* what) {
  throw std::runtime_error(std::string("ApproxInverse::load: ") + what);
}

template <typename T>
void write_pod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
void write_array(std::ostream& out, const T* data, std::size_t size) {
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(size * sizeof(T)));
}

template <typename T>
void write_vec(std::ostream& out, const std::vector<T>& v) {
  write_pod(out, static_cast<std::uint64_t>(v.size()));
  write_array(out, v.data(), v.size());
}

template <typename T>
void read_pod(std::istream& in, T& v) {
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!in) reject("truncated input");
}

/// Bytes from the read position to the end of `in`; the largest value
/// when the stream cannot seek (a short read still fails in read_array).
std::uint64_t bytes_left(std::istream& in) {
  const std::istream::pos_type here = in.tellg();
  if (here == std::istream::pos_type(-1)) return std::numeric_limits<std::uint64_t>::max();
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(here);
  if (!in || end < here) reject("unreadable input");
  return static_cast<std::uint64_t>(end - here);
}

/// Reads an array length, bounded by `max_size` and by the bytes left in
/// `in`, before anything is allocated for it.
template <typename T>
std::size_t read_size(std::istream& in, std::uint64_t max_size) {
  std::uint64_t size = 0;
  read_pod(in, size);
  if (size > max_size || size > bytes_left(in) / sizeof(T)) reject("array size out of range");
  return static_cast<std::size_t>(size);
}

template <typename T>
void read_array(std::istream& in, T* data, std::size_t size) {
  in.read(reinterpret_cast<char*>(data), static_cast<std::streamsize>(size * sizeof(T)));
  if (!in) reject("truncated input");
}

/// Reads an array that must hold exactly `size` elements.
template <typename T>
void read_vec(std::istream& in, std::vector<T>& v, std::size_t size) {
  if (read_size<T>(in, size) != size) reject("inconsistent payload");
  v.resize(size);
  read_array(in, v.data(), size);
}

}  // namespace

void ApproxInverse::save(std::ostream& out) const {
  out.write(kMagic, sizeof(kMagic));
  write_pod(out, kVersion);
  write_pod(out, static_cast<std::int64_t>(n_));
  write_vec(out, perm_);
  write_vec(out, inv_perm_);
  const auto nn = static_cast<std::size_t>(n_);
  std::vector<std::size_t> offset(nn);
  std::vector<index_t> len(nn);
  std::size_t at = 0;
  for (std::size_t j = nn; j-- > 0;) {
    offset[j] = at;
    len[j] = cols_[j].len;
    at += static_cast<std::size_t>(len[j]);
  }
  write_vec(out, offset);
  write_vec(out, len);
  write_pod(out, static_cast<std::uint64_t>(at));
  for (index_t j = n_; j-- > 0;) {
    const auto rows = column_rows(j);
    write_array(out, rows.data(), rows.size());
  }
  write_pod(out, static_cast<std::uint64_t>(at));
  for (index_t j = n_; j-- > 0;) {
    const auto vals = column_values(j);
    write_array(out, vals.data(), vals.size());
  }
  if (!out) throw std::runtime_error("ApproxInverse::save: write failed");
}

ApproxInverse ApproxInverse::load(std::istream& in) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) reject("bad magic");
  std::uint32_t version = 0;
  read_pod(in, version);
  if (version != kVersion) reject("unsupported version");

  ApproxInverse z;
  std::int64_t n = 0;
  read_pod(in, n);
  if (n < 0 || n > std::numeric_limits<index_t>::max()) reject("bad dimension");
  z.n_ = static_cast<index_t>(n);
  const auto nn = static_cast<std::size_t>(n);
  read_vec(in, z.perm_, nn);
  read_vec(in, z.inv_perm_, nn);
  std::vector<std::size_t> offset;
  std::vector<index_t> len;
  read_vec(in, offset, nn);
  read_vec(in, len, nn);
  // The pools go into one chunk.
  const std::size_t pool = read_size<index_t>(in, std::numeric_limits<std::uint64_t>::max());
  Chunk chunk(pool);
  chunk.used = pool;
  read_array(in, chunk.rows(), pool);
  if (read_size<real_t>(in, pool) != pool) reject("inconsistent payload");
  read_array(in, chunk.vals(), pool);

  // Structural validation before trusting the data.
  if (!is_permutation(z.perm_)) reject("perm is not a permutation");
  for (std::size_t i = 0; i < nn; ++i)
    if (z.inv_perm_[static_cast<std::size_t>(z.perm_[i])] != static_cast<index_t>(i))
      reject("inv_perm is not the inverse of perm");
  z.cols_.resize(nn);
  for (std::size_t j = 0; j < nn; ++j) {
    if (len[j] < 0 || offset[j] > pool || static_cast<std::size_t>(len[j]) > pool - offset[j])
      reject("column out of bounds");
    index_t* rows = chunk.rows() + offset[j];
    for (index_t k = 0; k < len[j]; ++k)
      if (rows[k] < 0 || rows[k] >= z.n_ || (k > 0 && rows[k] <= rows[k - 1]))
        reject("column rows not strictly ascending in [0, n)");
    z.cols_[j] = {rows, chunk.vals() + offset[j], len[j]};
    z.nnz_ += len[j];
  }
  z.chunks_.push_back(std::move(chunk));
  return z;
}

void ApproxInverse::save_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path);
  save(out);
}

ApproxInverse ApproxInverse::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return load(in);
}

}  // namespace er
