#include "sparse/io.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace er {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

}  // namespace

CscMatrix read_matrix_market(std::istream& in) {
  std::string line;
  if (!std::getline(in, line))
    throw std::runtime_error("matrix market: empty input");

  // Header: %%MatrixMarket matrix coordinate real general|symmetric
  std::istringstream hdr(line);
  std::string banner, object, format, field, symmetry;
  hdr >> banner >> object >> format >> field >> symmetry;
  if (lower(banner) != "%%matrixmarket" || lower(object) != "matrix")
    throw std::runtime_error("matrix market: bad banner");
  if (lower(format) != "coordinate")
    throw std::runtime_error("matrix market: only coordinate format supported");
  const std::string f = lower(field);
  if (f != "real" && f != "integer" && f != "pattern")
    throw std::runtime_error("matrix market: unsupported field " + field);
  const std::string sym = lower(symmetry);
  if (sym != "general" && sym != "symmetric")
    throw std::runtime_error("matrix market: unsupported symmetry " + symmetry);
  const bool symmetric = sym == "symmetric";
  const bool pattern = f == "pattern";

  // Skip comments, read size line.
  long long rows = 0, cols = 0, nnz = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '%') continue;
    std::istringstream ls(line);
    if (!(ls >> rows >> cols >> nnz))
      throw std::runtime_error("matrix market: bad size line");
    break;
  }
  // Dimensions must fit index_t before the narrowing casts below, and a
  // count above rows * cols (which cannot overflow once both fit) would
  // overflow the symmetric reservation 2 * nnz.
  constexpr long long kMaxDim = std::numeric_limits<index_t>::max();
  if (rows <= 0 || cols <= 0 || nnz < 0 || rows > kMaxDim ||
      cols > kMaxDim || nnz > rows * cols)
    throw std::runtime_error("matrix market: invalid dimensions");

  TripletMatrix t(static_cast<index_t>(rows), static_cast<index_t>(cols));
  t.reserve(static_cast<std::size_t>(symmetric ? 2 * nnz : nnz));
  long long seen = 0;
  while (seen < nnz && std::getline(in, line)) {
    if (line.empty() || line[0] == '%') continue;
    std::istringstream ls(line);
    long long r = 0, c = 0;
    double v = 1.0;
    if (!(ls >> r >> c)) throw std::runtime_error("matrix market: bad entry");
    if (!pattern && !(ls >> v))
      throw std::runtime_error("matrix market: missing value");
    if (r < 1 || r > rows || c < 1 || c > cols)
      throw std::runtime_error("matrix market: index out of range");
    t.add(static_cast<index_t>(r - 1), static_cast<index_t>(c - 1),
          static_cast<real_t>(v));
    if (symmetric && r != c)
      t.add(static_cast<index_t>(c - 1), static_cast<index_t>(r - 1),
            static_cast<real_t>(v));
    ++seen;
  }
  if (seen != nnz)
    throw std::runtime_error("matrix market: fewer entries than declared");
  return CscMatrix::from_triplets(t);
}

CscMatrix read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return read_matrix_market(in);
}

void write_matrix_market(const CscMatrix& a, std::ostream& out) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << a.rows() << ' ' << a.cols() << ' ' << a.nnz() << '\n';
  out.precision(17);
  const auto& cp = a.col_ptr();
  const auto& ri = a.row_ind();
  const auto& vv = a.values();
  for (index_t c = 0; c < a.cols(); ++c)
    for (offset_t k = cp[static_cast<std::size_t>(c)];
         k < cp[static_cast<std::size_t>(c) + 1]; ++k)
      out << ri[static_cast<std::size_t>(k)] + 1 << ' ' << c + 1 << ' '
          << vv[static_cast<std::size_t>(k)] << '\n';
}

void write_matrix_market_file(const CscMatrix& a, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  write_matrix_market(a, out);
}

}  // namespace er
