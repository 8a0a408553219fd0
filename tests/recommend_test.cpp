// Tests for the §7 recommender substrate.
#include <gtest/gtest.h>

#include <algorithm>

#include "models/app_clustering_model.hpp"
#include "recommend/recommender.hpp"

namespace appstore::recommend {
namespace {

/// Tiny hand-built dataset: 6 apps in 2 categories, 4 users.
/// Downloads: app 0 is globally hottest; apps 0+1 co-downloaded a lot.
Dataset small_dataset() {
  Dataset dataset;
  dataset.app_count = 6;
  dataset.app_category = {0, 0, 0, 1, 1, 1};
  dataset.user_sequences = {
      {0, 1},        // users pairing 0 and 1
      {0, 1, 2},
      {0, 1},
      {3, 4},        // category-1 fans
      {0, 5},
  };
  return dataset;
}

TEST(Popularity, RecommendsGlobalTopExcludingHistory) {
  PopularityRecommender recommender;
  recommender.train(small_dataset());
  // App 0 has 4 downloads, app 1 has 3.
  const auto top = recommender.recommend(std::vector<std::uint32_t>{}, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 0u);
  EXPECT_EQ(top[1], 1u);
  // History is excluded.
  const std::vector<std::uint32_t> history = {0};
  const auto rest = recommender.recommend(history, 2);
  EXPECT_EQ(rest[0], 1u);
}

TEST(Category, FollowsMostRecentCategory) {
  CategoryRecommender recommender;
  recommender.train(small_dataset());
  // Last download in category 1 -> recommend popular category-1 apps first.
  const std::vector<std::uint32_t> history = {0, 3};
  const auto recommendations = recommender.recommend(history, 2);
  ASSERT_EQ(recommendations.size(), 2u);
  EXPECT_EQ(recommender.name(), "CATEGORY");
  for (const auto app : recommendations) {
    EXPECT_NE(app, 3u);  // history excluded
  }
  EXPECT_EQ(small_dataset().app_category[recommendations[0]], 1u);
}

TEST(Category, FallsBackToGlobalWhenCategoryExhausted) {
  CategoryRecommender recommender;
  recommender.train(small_dataset());
  // All category-1 apps in history: must pad from global popularity.
  const std::vector<std::uint32_t> history = {3, 4, 5};
  const auto recommendations = recommender.recommend(history, 2);
  ASSERT_EQ(recommendations.size(), 2u);
  EXPECT_EQ(recommendations[0], 0u);
}

TEST(ItemCf, CoDownloadDrivesSimilarity) {
  ItemCfRecommender recommender;
  recommender.train(small_dataset());
  // Users who downloaded app 0 overwhelmingly also downloaded app 1.
  const std::vector<std::uint32_t> history = {0};
  const auto recommendations = recommender.recommend(history, 1);
  ASSERT_EQ(recommendations.size(), 1u);
  EXPECT_EQ(recommendations[0], 1u);
}

TEST(ItemCf, NeverRecommendsHistory) {
  ItemCfRecommender recommender;
  recommender.train(small_dataset());
  const std::vector<std::uint32_t> history = {0, 1, 2};
  const auto recommendations = recommender.recommend(history, 6);
  for (const auto app : recommendations) {
    EXPECT_TRUE(std::find(history.begin(), history.end(), app) == history.end());
  }
}

TEST(Hybrid, BoostsRecentCategory) {
  HybridRecommender recommender(/*neighbors=*/30, /*recent_window=*/1,
                                /*recency_boost=*/100.0F);
  recommender.train(small_dataset());
  // Recent download in category 1; with an extreme boost every category-1
  // candidate should outrank category-0 ones.
  const std::vector<std::uint32_t> history = {0, 3};
  const auto recommendations = recommender.recommend(history, 2);
  ASSERT_FALSE(recommendations.empty());
  EXPECT_EQ(small_dataset().app_category[recommendations[0]], 1u);
}

TEST(Eval, LeaveLastOutSplitsCorrectly) {
  const Dataset dataset = small_dataset();
  std::vector<std::uint32_t> held_out;
  const Dataset truncated = leave_last_out(dataset, held_out);
  ASSERT_EQ(held_out.size(), dataset.user_sequences.size());
  EXPECT_EQ(held_out[0], 1u);
  EXPECT_EQ(truncated.user_sequences[0].size(), 1u);
  EXPECT_EQ(truncated.user_sequences[1].size(), 2u);
}

TEST(Eval, HitRateCountsTopKMembership) {
  const Dataset dataset = small_dataset();
  std::vector<std::uint32_t> held_out;
  const Dataset truncated = leave_last_out(dataset, held_out);
  PopularityRecommender recommender;
  recommender.train(truncated);
  const EvalResult result = evaluate(recommender, truncated, held_out, 3);
  EXPECT_EQ(result.users_evaluated, 5u);
  EXPECT_GT(result.hit_rate(), 0.0);
  EXPECT_LE(result.hit_rate(), 1.0);
}

TEST(Eval, ClusteringAwareBeatsPopularityOnClusteredData) {
  // Generate sequences from APP-CLUSTERING: the clustering-aware strategies
  // must recover held-out downloads more often than plain popularity — the
  // §7 claim this module exists to demonstrate.
  models::ModelParams params;
  params.app_count = 400;
  params.user_count = 1200;
  params.downloads_per_user = 12.0;
  params.zr = 1.3;
  params.zc = 1.3;
  params.p = 0.92;
  params.cluster_count = 20;
  const auto layout = models::ClusterLayout::round_robin(400, 20);
  const models::AppClusteringModel model(params, layout);
  util::Rng rng(99);
  const auto workload = model.generate(rng, true);

  Dataset dataset;
  dataset.app_count = params.app_count;
  dataset.app_category.resize(params.app_count);
  for (std::uint32_t a = 0; a < params.app_count; ++a) {
    dataset.app_category[a] = layout.cluster_of(a);
  }
  for (std::uint32_t user = 0; user < workload.sequences.user_count(); ++user) {
    auto& sequence = dataset.user_sequences.emplace_back();
    for (const events::Event event : workload.sequence_view(user)) sequence.push_back(event.app);
  }

  std::vector<std::uint32_t> held_out;
  const Dataset truncated = leave_last_out(dataset, held_out);

  PopularityRecommender popularity;
  popularity.train(truncated);
  CategoryRecommender category;
  category.train(truncated);
  HybridRecommender hybrid;
  hybrid.train(truncated);

  constexpr std::size_t kTopK = 10;
  const double popularity_rate = evaluate(popularity, truncated, held_out, kTopK).hit_rate();
  const double category_rate = evaluate(category, truncated, held_out, kTopK).hit_rate();
  const double hybrid_rate = evaluate(hybrid, truncated, held_out, kTopK).hit_rate();

  EXPECT_GT(category_rate, popularity_rate);
  EXPECT_GT(hybrid_rate, popularity_rate);
}

}  // namespace
}  // namespace appstore::recommend
