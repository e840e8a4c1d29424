// Parity lock for the local jobs built from Hadoop's stock reduce
// functions (identity and long-sum): Wordcount with and without its
// combiner, Grep's search and sort jobs, Pi, TeraSort's sort job, MRBench,
// Naive Bayes training and classification, and the recommender's two jobs.
// Each job is hashed into one FNV-1a digest: its output records, every map
// and reduce TaskProfile, the shuffle matrix and DataPathStats. A change to
// a reducer or to the runner meant to keep outputs bit-identical must pass
// this unmodified.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "mapreduce/local_runner.hpp"
#include "ml/naive_bayes.hpp"
#include "ml/recommender.hpp"
#include "workloads/grep.hpp"
#include "workloads/mrbench.hpp"
#include "workloads/pi_estimator.hpp"
#include "workloads/terasort.hpp"
#include "workloads/text_corpus.hpp"
#include "workloads/wordcount.hpp"

namespace vhadoop::workloads {
namespace {

/// 64-bit FNV-1a over the bytes of everything added.
class Fnv1a {
 public:
  void bytes(const void* p, std::size_t n) {
    for (const unsigned char c : std::string_view(static_cast<const char*>(p), n)) {
      h_ ^= c;
      h_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { bytes(&v, sizeof v); }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }

  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string digest(const mapreduce::JobResult& job) {
  Fnv1a h;
  h.u64(job.output.size());
  for (const mapreduce::KV& kv : job.output) {
    h.str(kv.key);
    h.str(kv.value);
  }
  for (const auto* profiles : {&job.map_profiles, &job.reduce_profiles}) {
    h.u64(profiles->size());
    for (const mapreduce::TaskProfile& p : *profiles) {
      h.f64(p.input_bytes);
      h.i64(p.input_records);
      h.f64(p.output_bytes);
      h.i64(p.output_records);
      h.f64(p.cpu_seconds);
    }
  }
  h.u64(job.shuffle_matrix.size());
  for (const std::vector<double>& row : job.shuffle_matrix) {
    h.u64(row.size());
    for (const double bytes : row) h.f64(bytes);
  }
  h.f64(job.total_shuffle_bytes);
  const mapreduce::DataPathStats& s = job.stats;
  for (const std::int64_t v : {s.map_emit_records, s.map_emit_bytes, s.shuffle_records,
                               s.sort_comparisons, s.merge_comparisons, s.arena_chunks}) {
    h.i64(v);
  }
  return h.hex();
}

struct NamedJob {
  std::string name;
  mapreduce::JobResult job;
};

/// Every local job whose reducer is a stock one, at test sizes.
std::vector<NamedJob> stock_jobs() {
  constexpr unsigned kThreads = 2;
  const mapreduce::LocalJobRunner runner(kThreads);
  std::vector<NamedJob> jobs;

  const std::vector<mapreduce::KV> text = TextCorpus(2000, 1.0, 4711).generate(256 * 1024);
  jobs.push_back({"wordcount", runner.run(wordcount_job(3, false), text, 4)});
  jobs.push_back({"wordcount combiner", runner.run(wordcount_job(3, true), text, 4)});

  GrepResult g = grep("e", text, 4, kThreads);
  jobs.push_back({"grep search", std::move(g.jobs[0])});
  jobs.push_back({"grep sort", std::move(g.jobs[1])});

  jobs.push_back({"pi", PiEstimator{.num_maps = 5, .samples_per_map = 20000}.run(kThreads).job});

  const std::vector<mapreduce::KV> records = TeraSort::generate_records(3000, 2012);
  const std::vector<mapreduce::KV> sample(records.begin(), records.begin() + 300);
  jobs.push_back({"terasort", runner.run(TeraSort::sort_job(4, sample), records, 5)});

  const MrBench mrbench{.num_maps = 3, .num_reduces = 2, .lines_per_map = 40};
  jobs.push_back({"mrbench", runner.run(mrbench.job(), mrbench.input(), mrbench.num_maps)});

  const std::vector<ml::LabeledDoc> docs = ml::synthetic_labeled_corpus(3, 40, 30, 7);
  const ml::NaiveBayesConfig nb{.num_splits = 4, .num_reduces = 2, .threads = kThreads};
  ml::NaiveBayesRun trained = ml::train_naive_bayes(docs, nb);
  jobs.push_back({"nb classify", ml::classify_naive_bayes(trained.model, docs, nb).second});
  jobs.push_back({"nb train", std::move(trained.jobs[0])});

  ml::RecommenderRun rec = ml::recommend_items(
      ml::synthetic_ratings(4, 12, 10, 0.4, 17),
      {.top_n = 3, .num_splits = 4, .num_reduces = 2, .threads = kThreads});
  jobs.push_back({"cooccurrence", std::move(rec.jobs[0])});
  jobs.push_back({"recommend", std::move(rec.jobs[1])});
  return jobs;
}

TEST(WorkloadParity, StockReducerJobsAreBitIdentical) {
  const struct {
    const char* name;
    const char* digest;
  } want[] = {
      {"wordcount", "01f92722e53bae66"},    {"wordcount combiner", "42e2ddfeaefbaaf3"},
      {"grep search", "24029bc47e0cdd39"},  {"grep sort", "a3a1745ee8e1e5e1"},
      {"pi", "f3c83b11292e7fed"},           {"terasort", "39d6a706b473517d"},
      {"mrbench", "5b788e1da736c0ab"},      {"nb classify", "13d66c325e195681"},
      {"nb train", "2ef43425df9eab45"},     {"cooccurrence", "33f600f3a9a3acd3"},
      {"recommend", "67a1e2dd62f955c4"},
  };
  const std::vector<NamedJob> jobs = stock_jobs();
  ASSERT_EQ(jobs.size(), std::size(want));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_EQ(jobs[i].name, want[i].name);
    EXPECT_EQ(digest(jobs[i].job), want[i].digest) << jobs[i].name;
  }
}

}  // namespace
}  // namespace vhadoop::workloads
