// Edge-case and small-path coverage across modules: degenerate sizes,
// file round trips, and error paths not exercised elsewhere.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "bilinear/catalog.hpp"
#include "bilinear/executor.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "fft/fft.hpp"
#include "graph/csr.hpp"
#include "linalg/matmul.hpp"

namespace fmm {
namespace {

TEST(EdgeCases, RngUniformBoundOne) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.uniform(1), 0u);
  }
}

TEST(EdgeCases, RngFullRangeInt) {
  Rng rng(2);
  // Degenerate full-int64 range must not loop forever.
  const std::int64_t v = rng.uniform_int(INT64_MIN, INT64_MAX);
  (void)v;
  SUCCEED();
}

TEST(EdgeCases, TableCsvFileRoundTrip) {
  Table t({"x", "y"});
  t.add_row({"1", "hello, world"});
  const std::string path = "/tmp/fmm_table_test.csv";
  t.write_csv_file(path);
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "x,y\n1,\"hello, world\"\n");
  std::remove(path.c_str());
}

TEST(EdgeCases, DigraphParallelEdges) {
  // add_edge records a duplicate; freeze() refuses the multigraph.
  graph::GraphBuilder builder(2);
  builder.add_edge(0, 1);
  builder.add_edge(0, 1);
  EXPECT_EQ(builder.num_edges(), 2u);
  EXPECT_THROW(builder.freeze(), CheckError);
}

TEST(EdgeCases, DigraphDotGuardAboveVertexLimit) {
  // Rendering a CDAG-sized graph to DOT produces output nobody can lay
  // out; the guard must trip above kDotVertexLimit unless overridden.
  const graph::CsrGraph g =
      graph::GraphBuilder(graph::kDotVertexLimit + 1).freeze();
  EXPECT_THROW(g.to_dot(), CheckError);
  EXPECT_NO_THROW(g.to_dot({}, /*allow_large=*/true));
  const graph::CsrGraph small = graph::GraphBuilder(3).freeze();
  EXPECT_NO_THROW(small.to_dot());
}

TEST(EdgeCases, OneByOneMultiply) {
  bilinear::RecursiveExecutor executor(bilinear::strassen());
  linalg::Mat a(1, 1, 3.0), b(1, 1, 4.0);
  const linalg::Mat c = executor.multiply(a, b);
  EXPECT_EQ(c(0, 0), 12.0);
  EXPECT_EQ(executor.op_count().multiplications, 1);
}

TEST(EdgeCases, PaddedMultiplyOneByOne) {
  bilinear::RecursiveExecutor executor(bilinear::winograd());
  linalg::Mat a(1, 3), b(3, 1);
  linalg::fill_random(a, 1);
  linalg::fill_random(b, 2);
  const linalg::Mat c = executor.multiply_padded(a, b);
  EXPECT_EQ(c.rows(), 1u);
  EXPECT_EQ(c.cols(), 1u);
  EXPECT_NEAR(c(0, 0),
              a(0, 0) * b(0, 0) + a(0, 1) * b(1, 0) + a(0, 2) * b(2, 0),
              1e-12);
}

TEST(EdgeCases, ConvolveSizeMismatchThrows) {
  std::vector<fft::Complex> a(8), b(4);
  EXPECT_THROW(fft::convolve(a, b), CheckError);
}

TEST(EdgeCases, ClassicOneDimensional) {
  // <1,1,1;1> — the smallest valid bilinear algorithm.
  const auto alg = bilinear::classic(1, 1, 1);
  EXPECT_EQ(alg.num_products(), 1u);
  EXPECT_TRUE(alg.is_valid());
}

TEST(EdgeCases, TensorWithTrivial) {
  // Tensoring with <1,1,1;1> must be the identity on structure.
  const auto t = bilinear::BilinearAlgorithm::tensor(
      bilinear::strassen(), bilinear::classic(1, 1, 1));
  EXPECT_EQ(t.n(), 2u);
  EXPECT_EQ(t.num_products(), 7u);
  EXPECT_TRUE(t.is_valid());
  EXPECT_EQ(t.u(), bilinear::strassen().u());
}

TEST(EdgeCases, EmptyMatrixDefaults) {
  linalg::Mat m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(linalg::Mat::from_rows({}).size(), 0u);
}

TEST(EdgeCases, MatrixEquality) {
  linalg::Mat a(2, 2, 1.0);
  linalg::Mat b(2, 2, 1.0);
  EXPECT_TRUE(a == b);
  b(1, 1) = 2.0;
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace fmm
