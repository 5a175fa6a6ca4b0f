#include "core/cluster.h"

#include <string>

namespace dynamast::core {

Cluster::Cluster(const Options& options, const Partitioner* partitioner)
    : options_(options),
      partitioner_(partitioner),
      metrics_(metrics::Registry::OrGlobal(options.metrics)),
      network_(options.network, metrics_),
      logs_(options.num_sites) {
  if (options_.trace) {
    tracer_ = std::make_unique<trace::Tracer>();
    for (uint32_t i = 0; i < options_.num_sites; ++i) {
      tracer_->SetProcessName(i, "site" + std::to_string(i));
    }
    tracer_->SetProcessName(options_.num_sites, "selector");
  }
  if (options_.record_history) {
    history_ = std::make_unique<history::Recorder>();
  }
  for (uint32_t i = 0; i < options_.num_sites; ++i) {
    logs_.TopicFor(i)->SetAppendLatency(metrics_->GetHistogram(
        "log_append_us", {{"site", std::to_string(i)}}));
    site::SiteOptions site_options = options_.site;
    site_options.site_id = i;
    site_options.num_sites = options_.num_sites;
    sites_.push_back(std::make_unique<site::SiteManager>(
        site_options, partitioner_, &logs_, &network_, history_.get(),
        metrics_, tracer_.get()));
    site_pointers_.push_back(sites_.back().get());
  }
  auto phase = [this](const char* name) {
    return metrics_->GetHistogram("txn_phase_us", {{"phase", name}});
  };
  write_phases_ = {tracer_.get(), phase("begin"), phase("execute"),
                   phase("commit")};
}

Cluster::~Cluster() { Stop(); }

void Cluster::Start() {
  if (!options_.replicated) return;
  for (auto& s : sites_) s->Start();
}

void Cluster::Stop() {
  if (stopped_) return;
  stopped_ = true;
  logs_.CloseAll();
  for (auto& s : sites_) s->Stop();
}

Status Cluster::CreateTable(TableId id) {
  for (auto& s : sites_) {
    Status status = s->CreateTable(id);
    if (!status.ok()) return status;
  }
  return Status::OK();
}

Status Cluster::LoadRowEverywhere(const RecordKey& key,
                                  const std::string& value) {
  for (auto& s : sites_) {
    Status status = s->LoadRecord(key, value);
    if (!status.ok()) return status;
  }
  return Status::OK();
}

void Cluster::SetStaticMasters(const std::vector<SiteId>& placement) {
  for (PartitionId p = 0; p < placement.size(); ++p) {
    for (auto& s : sites_) s->SetMasterOf(p, s->site_id() == placement[p]);
  }
}

}  // namespace dynamast::core
