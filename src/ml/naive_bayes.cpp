#include "ml/naive_bayes.hpp"

#include <cmath>
#include <memory>
#include <set>
#include <sstream>

#include "mapreduce/local_runner.hpp"
#include "mapreduce/stock_reducers.hpp"
#include "sim/rng.hpp"

namespace vhadoop::ml {

namespace {

/// Records carry "label<TAB>tok tok tok".
std::string encode_doc(const LabeledDoc& doc) {
  std::string s = doc.label;
  s += '\t';
  for (std::size_t i = 0; i < doc.tokens.size(); ++i) {
    if (i) s += ' ';
    s += doc.tokens[i];
  }
  return s;
}

LabeledDoc decode_doc(std::string_view s) {
  LabeledDoc doc;
  const auto tab = s.find('\t');
  doc.label = std::string(s.substr(0, tab));
  std::size_t i = tab + 1;
  while (i < s.size()) {
    auto j = s.find(' ', i);
    if (j == std::string_view::npos) j = s.size();
    if (j > i) doc.tokens.emplace_back(s.substr(i, j - i));
    i = j + 1;
  }
  return doc;
}

std::vector<mapreduce::KV> to_records(const std::vector<LabeledDoc>& docs) {
  std::vector<mapreduce::KV> records;
  records.reserve(docs.size());
  for (std::size_t i = 0; i < docs.size(); ++i) {
    records.push_back({std::to_string(i), encode_doc(docs[i])});
  }
  return records;
}

/// Trainer: emits ("label\x1ftoken", count) per token and
/// ("label\x1f", doc count) for the priors; in-mapper combining.
class TrainMapper : public mapreduce::Mapper {
 public:
  void map(std::string_view, std::string_view value, mapreduce::Context&) override {
    // Tokenize the raw record in place (no LabeledDoc materialization); one
    // reused key buffer holds "label\x1f" + token for the count lookups.
    const auto tab = value.find('\t');
    key_buf_.assign(value.substr(0, tab));
    key_buf_ += '\x1f';
    counts_[key_buf_] += 1;
    const std::size_t base = key_buf_.size();
    std::size_t i = tab + 1;
    while (i < value.size()) {
      auto j = value.find(' ', i);
      if (j == std::string_view::npos) j = value.size();
      if (j > i) {
        key_buf_.resize(base);
        key_buf_.append(value.substr(i, j - i));
        counts_[key_buf_] += 1;
      }
      i = j + 1;
    }
  }

  void cleanup(mapreduce::Context& ctx) override {
    for (const auto& [key, n] : counts_) ctx.emit(key, mapreduce::encode_i64(n));
  }

 private:
  std::map<std::string, std::int64_t> counts_;
  std::string key_buf_;
};

class ClassifyMapper : public mapreduce::Mapper {
 public:
  explicit ClassifyMapper(std::shared_ptr<const NaiveBayesModel> model)
      : model_(std::move(model)) {}

  void map(std::string_view key, std::string_view value, mapreduce::Context& ctx) override {
    const LabeledDoc doc = decode_doc(value);
    ctx.emit(key, model_->classify(doc.tokens));
  }

 private:
  std::shared_ptr<const NaiveBayesModel> model_;
};

}  // namespace

std::string NaiveBayesModel::classify(const std::vector<std::string>& tokens) const {
  std::string best;
  double best_score = -std::numeric_limits<double>::infinity();
  for (const auto& [label, prior] : log_prior) {
    double score = prior;
    const auto& likelihood = log_likelihood.at(label);
    const double unseen = log_unseen.at(label);
    for (const std::string& tok : tokens) {
      auto it = likelihood.find(tok);
      score += (it != likelihood.end()) ? it->second : unseen;
    }
    if (score > best_score) {
      best_score = score;
      best = label;
    }
  }
  return best;
}

NaiveBayesRun train_naive_bayes(const std::vector<LabeledDoc>& docs,
                                const NaiveBayesConfig& config) {
  mapreduce::JobSpec spec;
  spec.config.name = "nbtrain";
  spec.config.num_reduces = config.num_reduces;
  spec.config.cost.map_cpu_per_byte = 4e-8;
  spec.config.cost.map_cpu_per_record = 2e-6;
  spec.mapper = [] { return std::make_unique<TrainMapper>(); };
  spec.reducer = [] { return std::make_unique<mapreduce::LongSumReducer>(); };

  mapreduce::LocalJobRunner runner(config.threads);
  const auto records = to_records(docs);

  NaiveBayesRun run;
  run.jobs.push_back(runner.run(spec, records, config.num_splits));

  // Assemble the model from (label \x1f token?) -> count.
  std::map<std::string, std::int64_t> doc_counts;
  std::map<std::string, std::map<std::string, std::int64_t>> token_counts;
  std::map<std::string, std::int64_t> total_tokens;
  std::set<std::string> vocab;
  for (const mapreduce::KV& kv : run.jobs[0].output) {
    const auto sep = kv.key.find('\x1f');
    const std::string label = kv.key.substr(0, sep);
    const std::string token = kv.key.substr(sep + 1);
    const std::int64_t n = mapreduce::decode_i64(kv.value);
    if (token.empty()) {
      doc_counts[label] += n;
    } else {
      token_counts[label][token] += n;
      total_tokens[label] += n;
      vocab.insert(token);
    }
  }
  NaiveBayesModel& model = run.model;
  model.vocabulary_size = vocab.size();
  std::int64_t total_docs = 0;
  for (const auto& [label, n] : doc_counts) total_docs += n;
  const double v = static_cast<double>(vocab.size());
  for (const auto& [label, n] : doc_counts) {
    model.log_prior[label] =
        std::log(static_cast<double>(n) / static_cast<double>(total_docs));
    const double denom = static_cast<double>(total_tokens[label]) + config.alpha * v;
    model.log_unseen[label] = std::log(config.alpha / denom);
    auto& out = model.log_likelihood[label];
    for (const auto& [token, count] : token_counts[label]) {
      out[token] = std::log((static_cast<double>(count) + config.alpha) / denom);
    }
  }
  return run;
}

std::pair<std::vector<std::string>, mapreduce::JobResult> classify_naive_bayes(
    const NaiveBayesModel& model, const std::vector<LabeledDoc>& docs,
    const NaiveBayesConfig& config) {
  auto shared = std::make_shared<const NaiveBayesModel>(model);
  mapreduce::JobSpec spec;
  spec.config.name = "nbclassify";
  spec.config.num_reduces = 1;
  spec.config.cost.map_cpu_per_byte = 6e-8;
  spec.mapper = [shared] { return std::make_unique<ClassifyMapper>(shared); };
  spec.reducer = [] { return std::make_unique<mapreduce::IdentityReducer>(); };

  mapreduce::LocalJobRunner runner(config.threads);
  auto result = runner.run(spec, to_records(docs), config.num_splits);

  std::vector<std::string> predicted(docs.size());
  for (const mapreduce::KV& kv : result.output) {
    predicted[static_cast<std::size_t>(std::stoul(kv.key))] = kv.value;
  }
  return {std::move(predicted), std::move(result)};
}

std::vector<LabeledDoc> synthetic_labeled_corpus(int classes, int docs_per_class,
                                                 int tokens_per_doc, std::uint64_t seed) {
  sim::Rng rng(seed);
  sim::ZipfSampler zipf(200, 1.0);
  std::vector<LabeledDoc> docs;
  docs.reserve(static_cast<std::size_t>(classes) * docs_per_class);
  for (int c = 0; c < classes; ++c) {
    for (int d = 0; d < docs_per_class; ++d) {
      LabeledDoc doc;
      doc.label = "class" + std::to_string(c);
      for (int t = 0; t < tokens_per_doc; ++t) {
        // 80% class-specific window, 20% shared stop-words.
        const std::size_t rank = zipf.sample(rng);
        if (rng.uniform() < 0.8) {
          std::string& token = doc.tokens.emplace_back("w");
          token += std::to_string(c * 1000 + static_cast<int>(rank));
        } else {
          doc.tokens.push_back("stop" + std::to_string(rank % 20));
        }
      }
      docs.push_back(std::move(doc));
    }
  }
  rng.shuffle(docs);
  return docs;
}

}  // namespace vhadoop::ml
