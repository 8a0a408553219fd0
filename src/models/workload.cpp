#include "models/workload.hpp"

#include <algorithm>
#include <functional>

namespace appstore::models {

std::vector<double> Workload::by_rank() const {
  std::vector<double> sorted(downloads.begin(), downloads.end());
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  return sorted;
}

}  // namespace appstore::models
