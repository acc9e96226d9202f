//! Minimal offline stand-in for the `libc` crate.
//!
//! The build container has no access to crates.io, so this shim declares
//! exactly the libc surface the workspace uses — the virtual-memory and
//! file-descriptor calls behind `diehard_core::global`, the TCP
//! socket surface behind `diehard_replicate::net` (socket/bind/listen/
//! accept/connect/setsockopt/getsockname/shutdown), plus the errno/fork/
//! dlopen surface behind the `diehard-preload` interposer and its tests —
//! against the system C library that every Rust binary on Linux already
//! links. Constants are
//! the Linux (x86_64/aarch64) values; each is annotated where platforms
//! diverge. Swap this for the real `libc` crate by editing one line in
//! the workspace `Cargo.toml` when online.

#![no_std]
#![allow(non_camel_case_types)]

/// C `char` (platform-signedness is irrelevant for our byte-wise uses).
pub type c_char = core::ffi::c_char;
/// C `short`.
pub type c_short = core::ffi::c_short;
/// C `int`.
pub type c_int = core::ffi::c_int;
/// C `long`.
pub type c_long = core::ffi::c_long;
/// C `unsigned long`.
pub type c_ulong = core::ffi::c_ulong;
/// C `void` (only ever used behind a pointer).
pub type c_void = core::ffi::c_void;
/// C `size_t`.
pub type size_t = usize;
/// C `ssize_t`.
pub type ssize_t = isize;
/// C `off_t` (64-bit on the Linux targets we build for).
pub type off_t = i64;
/// Process id.
pub type pid_t = c_int;
/// `pthread(3)` thread-specific-data key (glibc/musl: an unsigned int).
pub type pthread_key_t = core::ffi::c_uint;
/// `poll(2)` descriptor-count type.
pub type nfds_t = c_ulong;
/// Socket address length (POSIX: an unsigned 32-bit int on Linux).
pub type socklen_t = u32;
/// Socket address family tag (Linux: unsigned short).
pub type sa_family_t = u16;

/// An IPv4 address in network byte order (`netinet/in.h`).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct in_addr {
    /// The 32-bit address, big-endian.
    pub s_addr: u32,
}

/// An IPv4 socket address (`netinet/in.h`). Layout audit: Linux packs
/// `sin_family` (u16), `sin_port` (u16, network order), `sin_addr` (u32),
/// then 8 bytes of zero padding to pad the struct to `sockaddr`'s 16
/// bytes — 16 bytes total, no implicit padding between fields.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct sockaddr_in {
    /// Always `AF_INET`.
    pub sin_family: sa_family_t,
    /// Port in network byte order (`u16::to_be`).
    pub sin_port: u16,
    /// Address in network byte order.
    pub sin_addr: in_addr,
    /// Zero padding up to `sizeof(struct sockaddr)`.
    pub sin_zero: [u8; 8],
}

/// The generic socket address header (`sys/socket.h`); only ever used as
/// a pointer target for casts from concrete families.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct sockaddr {
    /// Address family tag.
    pub sa_family: sa_family_t,
    /// Family-specific payload.
    pub sa_data: [c_char; 14],
}

/// One entry in a `poll(2)` descriptor set.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct pollfd {
    /// The file descriptor to watch (negative entries are ignored).
    pub fd: c_int,
    /// Requested events (`POLLIN` / `POLLOUT`).
    pub events: c_short,
    /// Returned events (may include `POLLERR` / `POLLHUP` / `POLLNVAL`).
    pub revents: c_short,
}

/// `open(2)` flag: read-only.
pub const O_RDONLY: c_int = 0;
/// File-status flag: non-blocking I/O (Linux generic value).
pub const O_NONBLOCK: c_int = 0o4000;

/// `fcntl(2)` command: get descriptor flags (`FD_CLOEXEC`).
pub const F_GETFD: c_int = 1;
/// `fcntl(2)` command: set descriptor flags.
pub const F_SETFD: c_int = 2;
/// `fcntl(2)` command: get file-status flags.
pub const F_GETFL: c_int = 3;
/// `fcntl(2)` command: set file-status flags.
pub const F_SETFL: c_int = 4;
/// Descriptor flag: close on `execve(2)`. The proxy sets it on every
/// socket so replica children never inherit client connections (an
/// inherited socket would keep the peer's EOF from ever arriving).
pub const FD_CLOEXEC: c_int = 1;

/// Socket family: IPv4 (Linux value).
pub const AF_INET: c_int = 2;
/// Socket type: byte stream / TCP (Linux generic value; 1 on x86_64 and
/// aarch64 — only SPARC differs, which we don't build for).
pub const SOCK_STREAM: c_int = 1;
/// `setsockopt(2)` level: the socket layer itself (Linux value; 1 on
/// x86_64/aarch64 — BSD's 0xffff does NOT apply).
pub const SOL_SOCKET: c_int = 1;
/// Socket option: allow rebinding a recently-closed local address (Linux
/// value).
pub const SO_REUSEADDR: c_int = 2;
/// `shutdown(2)` how: close the write half (SHUT_WR), delivering EOF to
/// the peer while keeping the read half open.
pub const SHUT_WR: c_int = 1;

/// `poll(2)` event: data available to read.
pub const POLLIN: c_short = 0x001;
/// `poll(2)` event: writable without blocking.
pub const POLLOUT: c_short = 0x004;
/// `poll(2)` returned event: error condition on the descriptor.
pub const POLLERR: c_short = 0x008;
/// `poll(2)` returned event: peer hung up.
pub const POLLHUP: c_short = 0x010;
/// `poll(2)` returned event: invalid descriptor.
pub const POLLNVAL: c_short = 0x020;

/// `SIGKILL` — uncatchable termination (the voter's kill signal).
pub const SIGKILL: c_int = 9;

/// `errno` value: out of memory (`ENOMEM`, Linux generic value).
pub const ENOMEM: c_int = 12;
/// `errno` value: invalid argument (`EINVAL`, Linux generic value).
pub const EINVAL: c_int = 22;

/// `dlopen(3)` flag: resolve all symbols at load time.
pub const RTLD_NOW: c_int = 2;
/// `dlopen(3)` flag: keep the object's symbols out of the global scope —
/// essential when loading a malloc-exporting library for inspection: its
/// symbols must not start interposing on this process (Linux value; the
/// default, spelled explicitly).
pub const RTLD_LOCAL: c_int = 0;

/// `sysconf(3)` selector for the VM page size (Linux value).
pub const _SC_PAGESIZE: c_int = 30;

/// `mmap(2)` protection: readable.
pub const PROT_READ: c_int = 1;
/// `mmap(2)` protection: writable.
pub const PROT_WRITE: c_int = 2;
/// `mprotect(2)` protection: no access (guard pages).
pub const PROT_NONE: c_int = 0;

/// `mmap(2)` flag: private copy-on-write mapping.
pub const MAP_PRIVATE: c_int = 0x02;
/// `mmap(2)` flag: anonymous (not file-backed) mapping (Linux value).
pub const MAP_ANONYMOUS: c_int = 0x20;
/// `mmap(2)` flag: don't reserve swap for the mapping (Linux value).
pub const MAP_NORESERVE: c_int = 0x4000;
/// `mmap(2)` error sentinel: `(void *) -1`.
pub const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

/// `madvise(2)` advice: back this mapping with transparent huge pages
/// (Linux value).
pub const MADV_HUGEPAGE: c_int = 14;
/// `madvise(2)` advice: synchronously collapse the range's already-mapped
/// base pages into transparent huge pages (Linux 6.1+ value; older kernels
/// answer `EINVAL`).
pub const MADV_COLLAPSE: c_int = 25;

extern "C" {
    /// `open(2)`.
    pub fn open(path: *const c_char, flags: c_int, ...) -> c_int;
    /// `read(2)`.
    pub fn read(fd: c_int, buf: *mut c_void, count: size_t) -> ssize_t;
    /// `close(2)`.
    pub fn close(fd: c_int) -> c_int;
    /// `sysconf(3)`.
    pub fn sysconf(name: c_int) -> c_long;
    /// `getenv(3)`.
    pub fn getenv(name: *const c_char) -> *mut c_char;
    /// `strlen(3)`.
    pub fn strlen(s: *const c_char) -> size_t;
    /// `strnlen(3)`: scans at most `maxlen` bytes.
    pub fn strnlen(s: *const c_char, maxlen: size_t) -> size_t;
    /// `mmap(2)`.
    pub fn mmap(
        addr: *mut c_void,
        length: size_t,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: off_t,
    ) -> *mut c_void;
    /// `munmap(2)`.
    pub fn munmap(addr: *mut c_void, length: size_t) -> c_int;
    /// `mprotect(2)`.
    pub fn mprotect(addr: *mut c_void, length: size_t, prot: c_int) -> c_int;
    /// `madvise(2)`.
    pub fn madvise(addr: *mut c_void, length: size_t, advice: c_int) -> c_int;
    /// `poll(2)`.
    pub fn poll(fds: *mut pollfd, nfds: nfds_t, timeout: c_int) -> c_int;
    /// `fcntl(2)` (variadic: `F_SETFL` takes the flags as a third argument).
    pub fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
    /// `kill(2)`.
    pub fn kill(pid: pid_t, sig: c_int) -> c_int;
    /// `fork(2)`.
    pub fn fork() -> pid_t;
    /// `waitpid(2)`.
    pub fn waitpid(pid: pid_t, wstatus: *mut c_int, options: c_int) -> pid_t;
    /// `_exit(2)`: terminate immediately, no atexit/stdio teardown (the
    /// only safe exit from a test's forked child).
    pub fn _exit(status: c_int) -> !;
    /// `__errno_location(3)`: the address of this thread's `errno` (glibc
    /// and musl both export this exact symbol on Linux).
    pub fn __errno_location() -> *mut c_int;
    /// `pthread_atfork(3)`: registers fork preparation/resume handlers.
    pub fn pthread_atfork(
        prepare: Option<extern "C" fn()>,
        parent: Option<extern "C" fn()>,
        child: Option<extern "C" fn()>,
    ) -> c_int;
    /// `dlopen(3)` (in libc proper since glibc 2.34; the container's glibc
    /// qualifies).
    pub fn dlopen(filename: *const c_char, flags: c_int) -> *mut c_void;
    /// `dlsym(3)`.
    pub fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
    /// `pthread_key_create(3)`: allocates a thread-specific-data key whose
    /// destructor runs at each thread's exit while its value is non-null.
    pub fn pthread_key_create(
        key: *mut pthread_key_t,
        destructor: Option<unsafe extern "C" fn(*mut c_void)>,
    ) -> c_int;
    /// `pthread_setspecific(3)`: binds this thread's value for `key`.
    pub fn pthread_setspecific(key: pthread_key_t, value: *const c_void) -> c_int;
    /// `socket(2)`.
    pub fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    /// `bind(2)`.
    pub fn bind(sockfd: c_int, addr: *const sockaddr, addrlen: socklen_t) -> c_int;
    /// `listen(2)`.
    pub fn listen(sockfd: c_int, backlog: c_int) -> c_int;
    /// `accept(2)` (plain form — the shim targets portable POSIX, so
    /// `O_NONBLOCK`/`FD_CLOEXEC` are applied via `fcntl(2)` afterwards
    /// rather than through Linux-only `accept4`).
    pub fn accept(sockfd: c_int, addr: *mut sockaddr, addrlen: *mut socklen_t) -> c_int;
    /// `connect(2)`.
    pub fn connect(sockfd: c_int, addr: *const sockaddr, addrlen: socklen_t) -> c_int;
    /// `setsockopt(2)`.
    pub fn setsockopt(
        sockfd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_void,
        optlen: socklen_t,
    ) -> c_int;
    /// `getsockname(2)` (used to recover the port after binding port 0).
    pub fn getsockname(sockfd: c_int, addr: *mut sockaddr, addrlen: *mut socklen_t) -> c_int;
    /// `shutdown(2)`.
    pub fn shutdown(sockfd: c_int, how: c_int) -> c_int;
}
