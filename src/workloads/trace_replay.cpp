#include "workloads/trace_replay.hpp"

#include <algorithm>
#include <cmath>
#include <set>

namespace vhadoop::workloads {

double TenantReplayStats::latency_percentile(double q) const {
  if (latencies.empty()) return 0.0;
  auto sorted = latencies;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : std::min(rank - 1, sorted.size() - 1)];
}

TraceReplayer::TraceReplayer(sim::Engine& engine, obs::Registry& registry,
                             WorkloadTrace trace, SubmitFn submit, AdmissionConfig admission)
    : engine_(engine),
      registry_(registry),
      trace_(std::move(trace)),
      submit_(std::move(submit)),
      admission_(admission),
      m_accepted_(registry.counter("workload.trace_jobs_accepted")),
      m_rejected_(registry.counter("workload.trace_jobs_rejected")) {}

double TraceReplayer::spec_input_bytes(const mapreduce::SimJobSpec& spec) {
  double bytes = 0.0;
  for (const auto& mt : spec.maps) bytes += mt.input_bytes;
  return bytes;
}

void TraceReplayer::start() {
  if (armed_) return;
  armed_ = true;
  epoch_ = engine_.now();
  first_arrival_ = trace_.records.empty() ? 0.0 : trace_.records.front().arrival_seconds;
  // Pre-create the per-queue rejection counters so every queue named by the
  // trace has a row in the registry even when nothing is rejected — reports
  // and bench gates can rely on the key existing.
  std::set<std::string> queues;
  for (const TraceRecord& r : trace_.records) queues.insert(r.queue);
  for (const std::string& q : queues) {
    registry_.counter("mr.queue." + q + ".admission_rejected");
  }
  arm_next();
}

void TraceReplayer::arm_next() {
  if (next_ >= trace_.records.size()) return;
  const double at = epoch_ + trace_.records[next_].arrival_seconds;
  // Daemon: an armed arrival never keeps Engine::run() alive on its own.
  engine_.schedule_at(std::max(at, engine_.now()), [this] { arrive(); }, /*daemon=*/true);
}

void TraceReplayer::arrive() {
  const std::size_t idx = next_++;
  const TraceRecord& record = trace_.records[idx];
  TenantState& tenant = tenants_[record.tenant];
  tenant.stats.tenant = record.tenant;

  mapreduce::SimJobSpec spec = spec_for(record, idx);
  const double bytes = spec_input_bytes(spec);
  const bool over_jobs = admission_.max_concurrent_per_tenant > 0 &&
                         tenant.in_flight >= admission_.max_concurrent_per_tenant;
  const bool over_bytes =
      admission_.max_pending_bytes_per_tenant > 0.0 &&
      tenant.pending_bytes + bytes > admission_.max_pending_bytes_per_tenant;
  if (over_jobs || over_bytes) {
    ++rejected_;
    ++tenant.stats.rejected;
    m_rejected_->inc();
    registry_.counter("mr.queue." + record.queue + ".admission_rejected")->inc();
    arm_next();
    return;
  }

  ++accepted_;
  ++tenant.stats.accepted;
  ++tenant.in_flight;
  tenant.pending_bytes += bytes;
  ++outstanding_;
  m_accepted_->inc();
  max_submit_skew_ = std::max(
      max_submit_skew_, engine_.now() - (epoch_ + record.arrival_seconds));

  const std::string tenant_name = record.tenant;
  const double deadline = record.deadline_seconds;
  submit_(std::move(spec),
          [this, tenant_name, deadline, bytes](const mapreduce::JobTimeline& t) {
            TenantState& ts = tenants_[tenant_name];
            --ts.in_flight;
            ts.pending_bytes -= bytes;
            --outstanding_;
            last_finish_ = std::max(last_finish_, t.finished);
            if (t.failed) {
              ++failed_;
              ++ts.stats.failed;
              return;
            }
            ++completed_;
            ++ts.stats.completed;
            latencies_.push_back(t.elapsed());
            ts.stats.latencies.push_back(t.elapsed());
            if (deadline > 0.0) {
              ++slo_tracked_;
              if (t.elapsed() > deadline) {
                ++slo_missed_;
                ++ts.stats.slo_missed;
              }
            }
          });
  arm_next();
}

double TraceReplayer::run_to_completion() {
  start();
  // Drive through the quiet gaps: daemon arrivals alone never satisfy
  // Engine::run(), so walk the clock to the last arrival first, then drain
  // the remaining regular (job) events. An engine already driven past the
  // last arrival has fired every arrival; its clock stays where it is.
  engine_.run_until(std::max(engine_.now(), epoch_ + trace_.last_arrival()));
  engine_.run();
  // vlint: allow(no-exact-float-compare) audited PR 8: 0.0 is the never-assigned sentinel; real finishes are positive sim times
  if (trace_.records.empty() || last_finish_ == 0.0) return 0.0;
  return last_finish_ - (epoch_ + first_arrival_);
}

double TraceReplayer::slo_miss_rate() const {
  return slo_tracked_ == 0
             ? 0.0
             : static_cast<double>(slo_missed_) / static_cast<double>(slo_tracked_);
}

double TraceReplayer::latency_percentile(double q) const {
  TenantReplayStats all;
  all.latencies = latencies_;
  return all.latency_percentile(q);
}

std::vector<TenantReplayStats> TraceReplayer::tenant_stats() const {
  std::vector<TenantReplayStats> out;
  out.reserve(tenants_.size());
  for (const auto& [name, state] : tenants_) out.push_back(state.stats);
  return out;
}

}  // namespace vhadoop::workloads
