#include "catalog/database.h"

#include "common/logging.h"

namespace capd {

Table* Database::AddTable(std::unique_ptr<Table> table) {
  CAPD_CHECK(!HasTable(table->name())) << "duplicate table " << table->name();
  Table* raw = table.get();
  tables_[table->name()] = std::move(table);
  return raw;
}

bool Database::HasTable(const std::string& name) const {
  return tables_.count(name) > 0;
}

const Table& Database::table(const std::string& name) const {
  const auto it = tables_.find(name);
  CAPD_CHECK(it != tables_.end()) << "no such table: " << name;
  return *it->second;
}

std::vector<const Table*> Database::tables() const {
  std::vector<const Table*> out;
  out.reserve(tables_.size());
  for (const auto& [name, t] : tables_) out.push_back(t.get());
  return out;
}

std::vector<ForeignKey> Database::ForeignKeysFrom(
    const std::string& fact) const {
  std::vector<ForeignKey> out;
  for (const ForeignKey& fk : fks_) {
    if (fk.fact_table == fact) out.push_back(fk);
  }
  return out;
}

const ForeignKey* Database::FindForeignKey(const std::string& fact,
                                           const std::string& fk_column) const {
  for (const ForeignKey& fk : fks_) {
    if (fk.fact_table == fact && fk.fk_column == fk_column) return &fk;
  }
  return nullptr;
}

const TableStats& Database::stats(const std::string& table_name) const {
  // Map nodes never move, so the returned reference outlives the lock.
  std::lock_guard<std::mutex> lock(stats_mu_);
  auto it = stats_cache_.find(table_name);
  if (it == stats_cache_.end()) {
    it = stats_cache_.emplace(table_name, TableStats::Compute(table(table_name)))
             .first;
  }
  return it->second;
}

void Database::AddExistingIndex(const IndexDef& def, uint64_t bytes) {
  existing_[def.Signature()] = bytes;
}

uint64_t Database::BaseDataBytes() const {
  uint64_t bytes = 0;
  for (const auto& [name, t] : tables_) bytes += t->HeapBytes();
  return bytes;
}

}  // namespace capd
