#include "mcn/net/catalog.h"

#include <fstream>
#include <map>
#include <sstream>

#include "mcn/common/macros.h"
#include "mcn/graph/cost_vector.h"
#include "mcn/storage/persistence.h"

namespace mcn::net {
namespace {

constexpr char kHeader[] = "mcn-catalog-v1";

}  // namespace

Status SaveCatalog(const NetworkFiles& files, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << kHeader << "\n";
  out << "adjacency_file=" << files.adjacency_file << "\n";
  out << "facility_file=" << files.facility_file << "\n";
  out << "adj_tree_file=" << files.adjacency_tree.file() << "\n";
  out << "adj_tree_root=" << files.adjacency_tree.root() << "\n";
  out << "adj_tree_height=" << files.adjacency_tree.height() << "\n";
  out << "adj_tree_size=" << files.adjacency_tree.size() << "\n";
  out << "fac_tree_file=" << files.facility_tree.file() << "\n";
  out << "fac_tree_root=" << files.facility_tree.root() << "\n";
  out << "fac_tree_height=" << files.facility_tree.height() << "\n";
  out << "fac_tree_size=" << files.facility_tree.size() << "\n";
  out << "num_nodes=" << files.num_nodes << "\n";
  out << "num_edges=" << files.num_edges << "\n";
  out << "num_facilities=" << files.num_facilities << "\n";
  out << "num_costs=" << files.num_costs << "\n";
  out << "total_pages=" << files.total_pages << "\n";
  // Landmark index keys are written only when an index was built; readers
  // of older catalogs (and older readers of newer catalogs) interoperate
  // because the keys are optional on load.
  if (files.landmark.present()) {
    out << "lm_file=" << files.landmark.file << "\n";
    out << "lm_landmarks=" << files.landmark.num_landmarks << "\n";
    out << "lm_nodes=" << files.landmark.num_nodes << "\n";
    out << "lm_costs=" << files.landmark.num_costs << "\n";
    out << "lm_records_per_page=" << files.landmark.records_per_page << "\n";
    out << "lm_pages=" << files.landmark.num_pages << "\n";
  }
  if (!out.good()) return Status::IOError("write to " + path + " failed");
  return Status::OK();
}

Result<NetworkFiles> LoadCatalog(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    return Status::Corruption(path + ": not an mcn catalog");
  }
  std::map<std::string, uint64_t> kv;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::Corruption("bad catalog line: " + line);
    }
    std::istringstream value(line.substr(eq + 1));
    uint64_t v = 0;
    value >> v;
    if (!value) return Status::Corruption("bad catalog value: " + line);
    kv[line.substr(0, eq)] = v;
  }
  for (const char* key :
       {"adjacency_file", "facility_file", "adj_tree_file", "adj_tree_root",
        "adj_tree_height", "adj_tree_size", "fac_tree_file",
        "fac_tree_root", "fac_tree_height", "fac_tree_size", "num_nodes",
        "num_edges", "num_facilities", "num_costs", "total_pages"}) {
    if (kv.find(key) == kv.end()) {
      return Status::Corruption(std::string("catalog misses key ") + key);
    }
  }
  // Every CostVector of a query over this network is sized by num_costs,
  // and a CostVector holds at most kMaxCostTypes values inline. Checked
  // before the narrowing cast, so 2^32 + 4 cannot pass as 4.
  const uint64_t num_costs = kv["num_costs"];
  if (num_costs < 1 ||
      num_costs > static_cast<uint64_t>(graph::kMaxCostTypes)) {
    return Status::Corruption(
        path + ": num_costs " + std::to_string(num_costs) +
        " outside [1, " + std::to_string(graph::kMaxCostTypes) + "]");
  }
  NetworkFiles files;
  files.adjacency_file = static_cast<storage::FileId>(kv["adjacency_file"]);
  files.facility_file = static_cast<storage::FileId>(kv["facility_file"]);
  files.adjacency_tree = index::BPlusTree(
      static_cast<storage::FileId>(kv["adj_tree_file"]),
      static_cast<storage::PageNo>(kv["adj_tree_root"]),
      static_cast<uint32_t>(kv["adj_tree_height"]), kv["adj_tree_size"]);
  files.facility_tree = index::BPlusTree(
      static_cast<storage::FileId>(kv["fac_tree_file"]),
      static_cast<storage::PageNo>(kv["fac_tree_root"]),
      static_cast<uint32_t>(kv["fac_tree_height"]), kv["fac_tree_size"]);
  files.num_nodes = static_cast<uint32_t>(kv["num_nodes"]);
  files.num_edges = static_cast<uint32_t>(kv["num_edges"]);
  files.num_facilities = static_cast<uint32_t>(kv["num_facilities"]);
  files.num_costs = static_cast<int>(num_costs);
  files.total_pages = kv["total_pages"];
  if (kv.count("lm_landmarks") != 0 && kv["lm_landmarks"] > 0) {
    for (const char* key : {"lm_file", "lm_nodes", "lm_costs",
                            "lm_records_per_page", "lm_pages"}) {
      if (kv.find(key) == kv.end()) {
        return Status::Corruption(std::string("catalog misses key ") + key);
      }
    }
    files.landmark.file = static_cast<storage::FileId>(kv["lm_file"]);
    files.landmark.num_landmarks = static_cast<uint32_t>(kv["lm_landmarks"]);
    files.landmark.num_nodes = static_cast<uint32_t>(kv["lm_nodes"]);
    files.landmark.num_costs = static_cast<int>(kv["lm_costs"]);
    files.landmark.records_per_page =
        static_cast<uint32_t>(kv["lm_records_per_page"]);
    files.landmark.num_pages = kv["lm_pages"];
  }
  return files;
}

Status SaveNetworkDatabase(const storage::DiskManager& disk,
                           const NetworkFiles& files,
                           const std::string& base_path) {
  MCN_RETURN_IF_ERROR(storage::SaveDiskImage(disk, base_path + ".img"));
  return SaveCatalog(files, base_path + ".cat");
}

Result<LoadedDatabase> LoadNetworkDatabase(const std::string& base_path) {
  LoadedDatabase db;
  MCN_ASSIGN_OR_RETURN(db.disk,
                       storage::LoadDiskImage(base_path + ".img"));
  MCN_ASSIGN_OR_RETURN(db.files, LoadCatalog(base_path + ".cat"));
  // Cross-validate the catalog against the image.
  if (db.files.adjacency_file >= db.disk.num_files() ||
      db.files.facility_file >= db.disk.num_files()) {
    return Status::Corruption("catalog references missing files");
  }
  return db;
}

}  // namespace mcn::net
