#include "io/mmap.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace contango {

MappedFile::~MappedFile() { release(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(other.data_),
      size_(other.size_),
      mapped_(other.mapped_),
      buffer_(std::move(other.buffer_)) {
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    release();
    data_ = other.data_;
    size_ = other.size_;
    mapped_ = other.mapped_;
    buffer_ = std::move(other.buffer_);
    other.data_ = nullptr;
    other.size_ = 0;
    other.mapped_ = false;
  }
  return *this;
}

void MappedFile::release() {
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<unsigned char*>(data_), size_);
  }
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  buffer_.clear();
  buffer_.shrink_to_fit();
}

MappedFile MappedFile::open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw std::runtime_error(path + ": cannot open: " +
                             std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int saved = errno;
    ::close(fd);
    throw std::runtime_error(path + ": cannot stat: " + std::strerror(saved));
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    throw std::runtime_error(path + ": not a regular file");
  }
  MappedFile file;
  file.size_ = static_cast<std::size_t>(st.st_size);
  if (file.size_ > 0) {
    // mmap rejects zero-length mappings; empty files stay unmapped with a
    // null data pointer, which every consumer already handles.
    void* base = ::mmap(nullptr, file.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (base == MAP_FAILED) {
      const int saved = errno;
      ::close(fd);
      throw std::runtime_error(path + ": cannot mmap: " +
                               std::strerror(saved));
    }
    file.data_ = static_cast<const unsigned char*>(base);
    file.mapped_ = true;
  }
  ::close(fd);  // the mapping keeps the pages alive
  return file;
}

MappedFile MappedFile::from_bytes(std::vector<unsigned char> bytes) {
  MappedFile file;
  file.buffer_ = std::move(bytes);
  file.size_ = file.buffer_.size();
  if (!file.buffer_.empty()) file.data_ = file.buffer_.data();
  return file;
}

}  // namespace contango
