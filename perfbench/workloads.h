// The benchmark's workloads. Each run is a sequence of episodes: an
// episode sets up a fresh runtime (construction, store open, dataset
// generation and eager registration), then submits one fixed-size,
// seeded request sequence against the public API.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "support.h"
#include "workload/datagen.h"

namespace perfbench {

class Workload {
 public:
  Workload(std::string name, hyppo::workload::UseCase use_case,
           double multiplier, int data_seeds, double tail_percentile,
           int min_episodes)
      : name_(std::move(name)),
        use_case_(std::move(use_case)),
        multiplier_(multiplier),
        data_seeds_(data_seeds),
        tail_percentile_(tail_percentile),
        min_episodes_(min_episodes) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  const std::string& name() const { return name_; }
  // Fixed per workload, with `min_episodes` guaranteeing at least ten
  // latency samples beyond it.
  double tail_percentile() const { return tail_percentile_; }
  int min_episodes() const { return min_episodes_; }

  // Generates the seeded inputs (untimed). `work_dir` is scratch space.
  Status Prepare(uint64_t seed, const std::filesystem::path& work_dir);
  // One episode: fresh set-up, then the whole request sequence.
  virtual Episode RunEpisode(int index, bool traced,
                             std::vector<Span>* spans) = 0;
  // Releases what the episodes left on disk, after the timed phase; an
  // error means something could not be cleaned up.
  virtual Status Finish() { return Status::OK(); }
  // Shape, threads and clients, for the run metadata.
  virtual std::map<std::string, std::string> Meta() const = 0;

  // The raw dataset a data seed stands for (reference runs regenerate it).
  std::string dataset_id() const { return use_case_.DatasetId(multiplier_); }
  Result<hyppo::ml::DatasetPtr> MakeDataset(uint64_t data_seed) const;

 protected:
  virtual Status PrepareInputs() = 0;
  // Episodes cycle through `data_seeds` datasets drawn from the run seed,
  // so one run's medians cover several draws of the data.
  uint64_t DataSeed(int episode) const;
  int64_t DatasetBytes() const;
  std::map<std::string, std::string> BaseMeta() const;

  const std::string name_;
  const hyppo::workload::UseCase use_case_;
  const double multiplier_;
  const int data_seeds_;
  const double tail_percentile_;
  const int min_episodes_;
  uint64_t seed_ = 1;
  std::filesystem::path work_dir_;
};

// explore, catalog, sweep or serve; null for any other name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
