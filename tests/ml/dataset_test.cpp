#include "ml/dataset.hpp"

#include <gtest/gtest.h>

#include <set>

#include "ml/vector.hpp"

namespace vhadoop::ml {
namespace {

TEST(SyntheticControl, ShapeMatchesUciDataset) {
  auto data = synthetic_control();
  EXPECT_EQ(data.size(), 600u);
  EXPECT_EQ(data.dim(), 60u);
  std::set<int> labels(data.labels.begin(), data.labels.end());
  EXPECT_EQ(labels.size(), 6u);
}

TEST(SyntheticControl, ClassMeansFollowGeneratorEquations) {
  auto data = synthetic_control(50, 60, 7);
  auto class_mean_at = [&](int cls, int t) {
    double sum = 0.0;
    int n = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (data.labels[i] == cls) {
        sum += data.points[i][static_cast<std::size_t>(t)];
        ++n;
      }
    }
    return sum / n;
  };
  // Normal class hovers at the base level m = 30.
  EXPECT_NEAR(class_mean_at(0, 10), 30.0, 1.0);
  EXPECT_NEAR(class_mean_at(0, 50), 30.0, 1.0);
  // Increasing trend rises; decreasing falls.
  EXPECT_GT(class_mean_at(2, 55), class_mean_at(2, 5) + 10.0);
  EXPECT_LT(class_mean_at(3, 55), class_mean_at(3, 5) - 10.0);
  // Upward shift ends well above where it starts; downward below.
  EXPECT_GT(class_mean_at(4, 58), class_mean_at(4, 1) + 5.0);
  EXPECT_LT(class_mean_at(5, 58), class_mean_at(5, 1) - 5.0);
}

TEST(SyntheticControl, DeterministicForSeed) {
  auto a = synthetic_control(10, 60, 3);
  auto b = synthetic_control(10, 60, 3);
  EXPECT_EQ(a.points, b.points);
  auto c = synthetic_control(10, 60, 4);
  EXPECT_NE(a.points, c.points);
}

TEST(DisplaySamples, ThreeBlobsWithPaperParameters) {
  auto data = display_clustering_samples(1000, 5);
  EXPECT_EQ(data.size(), 1000u);
  EXPECT_EQ(data.dim(), 2u);
  // The tight sd=0.1 blob at (0,2) must be tightly packed.
  double maxd = 0.0;
  int n2 = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (data.labels[i] == 2) {
      maxd = std::max(maxd, euclidean(data.points[i], Vec{0.0, 2.0}));
      ++n2;
    }
  }
  EXPECT_EQ(n2, 300);
  EXPECT_LT(maxd, 0.6);
  // The sd=3 blob spreads wide.
  double spread = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (data.labels[i] == 0) spread = std::max(spread, euclidean(data.points[i], Vec{1.0, 1.0}));
  }
  EXPECT_GT(spread, 5.0);
}

TEST(Records, RoundTripThroughKv) {
  auto data = display_clustering_samples(50, 9);
  auto records = to_records(data);
  ASSERT_EQ(records.size(), 50u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(point_of(records[i]), data.points[i]);
  }
}

TEST(VectorOps, Distances) {
  Vec a{0.0, 3.0}, b{4.0, 0.0};
  EXPECT_DOUBLE_EQ(squared_euclidean(a, b), 25.0);
  EXPECT_DOUBLE_EQ(euclidean(a, b), 5.0);
  EXPECT_THROW(euclidean(Vec{1.0}, Vec{1.0, 2.0}), std::invalid_argument);
}

TEST(VectorOps, MeanAndScale) {
  Vec sum{4.0, 8.0};
  EXPECT_EQ(mean_of(sum, 4.0), (Vec{1.0, 2.0}));
  Vec acc;
  add_in_place(acc, Vec{1.0, 1.0});
  add_in_place(acc, Vec{2.0, 3.0});
  EXPECT_EQ(acc, (Vec{3.0, 4.0}));
}

}  // namespace
}  // namespace vhadoop::ml
