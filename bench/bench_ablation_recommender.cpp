// Ablation: recommendation strategies under clustering-driven behaviour
// (§7 "Better recommendation systems").
//
// Generates per-user download sequences with APP-CLUSTERING, hides each
// user's last download (leave-last-out) and measures hit@k for four
// recommenders. The paper's argument: a recommender exploiting the temporal
// affinity to categories ("apps related to the most recent interests of a
// user") should beat both global popularity and plain collaborative
// filtering; the HYBRID row quantifies the combination.
#include "common.hpp"

#include "models/app_clustering_model.hpp"
#include "recommend/recommender.hpp"

int main(int argc, char** argv) {
  using namespace appstore;
  benchx::BenchCli cli("bench_ablation_recommender",
                       "Ablation: recommender strategies under the clustering effect");
  auto users = cli.raw().u64("users", 4000, "simulated users");
  auto apps = cli.raw().u64("apps", 1500, "apps in the catalog");
  auto top_k = cli.raw().u64("topk", 10, "recommendation list length");
  cli.parse(argc, argv);

  benchx::print_heading("Ablation — recommenders vs the clustering effect",
                        "§7: suggesting apps from the user's recent categories should "
                        "beat popularity-only and plain collaborative filtering");

  models::ModelParams params;
  params.app_count = static_cast<std::uint32_t>(*apps);
  params.user_count = *users;
  params.downloads_per_user = 12.0;
  params.zr = 1.3;
  params.zc = 1.3;
  params.p = 0.92;
  params.cluster_count = 30;
  const auto layout = models::ClusterLayout::round_robin(params.app_count, 30);
  const models::AppClusteringModel model(params, layout);
  util::Rng rng(cli.seed());
  const auto workload = model.generate(rng, true);

  recommend::Dataset dataset;
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
  const recommend::Dataset truncated = recommend::leave_last_out(dataset, held_out);

  recommend::PopularityRecommender popularity;
  recommend::CategoryRecommender category;
  recommend::ItemCfRecommender item_cf;
  recommend::HybridRecommender hybrid;
  std::vector<recommend::Recommender*> recommenders = {&popularity, &category, &item_cf,
                                                       &hybrid};

  report::Table table({"recommender", util::format("hit@{}", *top_k), "users"});
  report::Series series{"recommender_hit_rate", {"recommender_index", "hit_rate"}, {}};
  double index = 0.0;
  for (auto* recommender : recommenders) {
    recommender->train(truncated);
    const auto result = recommend::evaluate(*recommender, truncated, held_out, *top_k);
    table.row({std::string(recommender->name()), report::percent(result.hit_rate()),
               std::to_string(result.users_evaluated)});
    series.add({index, result.hit_rate()});
    index += 1.0;
  }
  benchx::print_table(table);
  report::export_all({series}, "ablation_recommender");
  return 0;
}
