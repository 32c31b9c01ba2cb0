#include "relia/fileseg.hpp"

#include <cstring>
#include <filesystem>
#include <system_error>

namespace dlc::relia {

namespace {

std::string frame(std::string_view body) {
  std::string out;
  const std::uint64_t n = body.size();
  char len[8];
  std::memcpy(len, &n, sizeof(len));
  out.append(len, sizeof(len));
  out.append(body.data(), body.size());
  return out;
}

}  // namespace

bool FileSegment::reopen_stream() {
  file_.open(path_, std::ios::binary | std::ios::in | std::ios::out);
  return file_.is_open();
}

bool FileSegment::open(const std::string& path) {
  close();
  path_ = path;
  if (!std::filesystem::exists(path_)) {
    // Create first: fstream's in|out refuses to create.
    std::ofstream create(path_, std::ios::binary | std::ios::trunc);
    if (!create.is_open()) return false;
  }
  if (!reopen_stream()) return false;
  open_ = true;
  read_pos_ = 0;
  std::error_code ec;
  const auto size = std::filesystem::file_size(path_, ec);
  bytes_ = ec ? 0 : static_cast<std::size_t>(size);
  return true;
}

void FileSegment::close() {
  if (file_.is_open()) file_.close();
  open_ = false;
  bytes_ = 0;
  read_pos_ = 0;
}

bool FileSegment::append(std::string_view body) {
  if (!open_) return false;
  const std::string record = frame(body);
  file_.clear();
  file_.seekp(0, std::ios::end);
  file_.write(record.data(), static_cast<std::streamsize>(record.size()));
  if (!file_.good()) return false;
  bytes_ += record.size();
  return true;
}

bool FileSegment::append_partial(std::string_view body,
                                 std::size_t keep_bytes) {
  if (!open_) return false;
  const std::string record = frame(body);
  const std::size_t n = std::min(keep_bytes, record.size());
  file_.clear();
  file_.seekp(0, std::ios::end);
  file_.write(record.data(), static_cast<std::streamsize>(n));
  file_.flush();
  if (!file_.good()) return false;
  bytes_ += n;
  return true;
}

bool FileSegment::flush() {
  if (!open_) return false;
  file_.flush();
  return file_.good();
}

FileSegment::ReadStatus FileSegment::read_next(std::string& body) {
  if (!open_) return ReadStatus::kTorn;
  file_.clear();
  file_.seekg(read_pos_);
  char len[8];
  if (!file_.read(len, sizeof(len))) {
    // Fewer than 8 bytes left: clean EOF only when *zero* bytes remain.
    return file_.gcount() == 0 ? ReadStatus::kEof : ReadStatus::kTorn;
  }
  std::uint64_t n = 0;
  std::memcpy(&n, len, sizeof(len));
  if (n > bytes_) return ReadStatus::kTorn;  // length prefix itself torn
  body.assign(static_cast<std::size_t>(n), '\0');
  if (!file_.read(body.data(), static_cast<std::streamsize>(n))) {
    return ReadStatus::kTorn;
  }
  read_pos_ = file_.tellg();
  return ReadStatus::kOk;
}

bool FileSegment::truncate_to(std::streamoff size) {
  if (!open_) return false;
  file_.flush();
  file_.close();
  std::error_code ec;
  std::filesystem::resize_file(path_,
                               static_cast<std::uintmax_t>(size), ec);
  if (ec) return false;
  if (!reopen_stream()) {
    open_ = false;
    return false;
  }
  bytes_ = static_cast<std::size_t>(size);
  if (read_pos_ > size) read_pos_ = size;
  return true;
}

}  // namespace dlc::relia
