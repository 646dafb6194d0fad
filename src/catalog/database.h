// The database catalog: tables (base tables and materialized MVs alike),
// foreign-key metadata, lazily-computed statistics, and any pre-existing
// indexes (which the size-estimation framework treats as free, perfectly
// accurate size sources — Section 5.1).
#ifndef CAPD_CATALOG_DATABASE_H_
#define CAPD_CATALOG_DATABASE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "index/index_def.h"
#include "stats/column_stats.h"
#include "stats/join_synopsis.h"
#include "storage/table.h"

namespace capd {

class Database {
 public:
  Database() = default;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  Table* AddTable(std::unique_ptr<Table> table);
  bool HasTable(const std::string& name) const;
  const Table& table(const std::string& name) const;
  std::vector<const Table*> tables() const;

  void AddForeignKey(ForeignKey fk) { fks_.push_back(std::move(fk)); }
  const std::vector<ForeignKey>& foreign_keys() const { return fks_; }
  // FK edges whose fact side is `fact`.
  std::vector<ForeignKey> ForeignKeysFrom(const std::string& fact) const;
  // The edge fact.fk_column -> some dimension, if declared.
  const ForeignKey* FindForeignKey(const std::string& fact,
                                   const std::string& fk_column) const;

  // Stats are computed on first use and cached per table; safe to call
  // from concurrent threads.
  const TableStats& stats(const std::string& table_name) const;

  // Pre-existing physical indexes (size known exactly from the catalog).
  void AddExistingIndex(const IndexDef& def, uint64_t bytes);
  const std::map<std::string, uint64_t>& existing_index_bytes() const {
    return existing_;
  }

  // Total base-data size (heaps of all base tables); the experiments'
  // storage budgets are expressed as a fraction of this.
  uint64_t BaseDataBytes() const;

 private:
  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::vector<ForeignKey> fks_;
  mutable std::mutex stats_mu_;  // guards stats_cache_
  mutable std::map<std::string, TableStats> stats_cache_;
  std::map<std::string, uint64_t> existing_;  // IndexDef signature -> bytes
};

}  // namespace capd

#endif  // CAPD_CATALOG_DATABASE_H_
