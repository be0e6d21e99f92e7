#include "util/csv.h"

#include <sstream>

#include "util/file_util.h"
#include "util/string_util.h"

namespace tdg::util {

std::string CsvEscape(std::string_view field) {
  bool needs_quotes = field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quotes) {
    return std::string(field);
  }
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

StatusOr<std::vector<std::string>> CsvSplitLine(std::string_view line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  size_t i = 0;
  while (i < line.size()) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      current.push_back(c);
      ++i;
    } else {
      if (c == '"') {
        if (!current.empty()) {
          return Status::InvalidArgument(
              "quote in the middle of an unquoted CSV field");
        }
        in_quotes = true;
        ++i;
      } else if (c == ',') {
        fields.push_back(std::move(current));
        current.clear();
        ++i;
      } else {
        current.push_back(c);
        ++i;
      }
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted CSV field");
  }
  fields.push_back(std::move(current));
  return fields;
}

Status CsvDocument::AddRow(std::vector<std::string> row) {
  if (!header_.empty() && row.size() != header_.size()) {
    return Status::InvalidArgument(StrFormat(
        "CSV row has %zu fields, header has %zu", row.size(), header_.size()));
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

StatusOr<size_t> CsvDocument::ColumnIndex(std::string_view name) const {
  for (size_t i = 0; i < header_.size(); ++i) {
    if (header_[i] == name) return i;
  }
  return Status::NotFound("no CSV column named '" + std::string(name) + "'");
}

StatusOr<std::string> CsvDocument::Field(size_t row, size_t col) const {
  if (row >= rows_.size()) {
    return Status::OutOfRange(StrFormat("row %zu out of range", row));
  }
  if (col >= rows_[row].size()) {
    return Status::OutOfRange(StrFormat("column %zu out of range", col));
  }
  return rows_[row][col];
}

std::string CsvDocument::ToString() const {
  std::ostringstream out;
  auto write_row = [&out](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out << ',';
      out << CsvEscape(row[i]);
    }
    out << '\n';
  };
  if (!header_.empty()) write_row(header_);
  for (const auto& row : rows_) write_row(row);
  return out.str();
}

StatusOr<CsvDocument> CsvDocument::Parse(std::string_view text) {
  CsvDocument doc;
  bool saw_header = false;
  size_t start = 0;
  while (start <= text.size()) {
    if (start == text.size()) break;
    size_t end = text.find('\n', start);
    std::string_view line = (end == std::string_view::npos)
                                ? text.substr(start)
                                : text.substr(start, end - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    start = (end == std::string_view::npos) ? text.size() : end + 1;
    if (line.empty()) continue;
    TDG_ASSIGN_OR_RETURN(std::vector<std::string> fields, CsvSplitLine(line));
    if (!saw_header) {
      doc.header_ = std::move(fields);
      saw_header = true;
    } else {
      TDG_RETURN_IF_ERROR(doc.AddRow(std::move(fields)));
    }
  }
  return doc;
}

Status CsvDocument::WriteToFile(const std::string& path) const {
  return WriteStringToFile(path, ToString());
}

StatusOr<CsvDocument> CsvDocument::ReadFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return Parse(buffer.str());
}

}  // namespace tdg::util
