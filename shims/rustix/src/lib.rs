//! Local stand-in for the `rustix` crate (the build environment has no
//! crates.io access). Only the two calls the TCP runtime's node threads
//! wait on are provided, in `rustix::event` with the rustix 1.x
//! signatures: [`event::poll`] over [`event::PollFd`]s with
//! [`event::PollFlags`] and an optional [`event::Timespec`] timeout, and
//! [`event::eventfd`] with [`event::EventfdFlags`].
//!
//! Fidelity notes:
//! * Linux only, like the TCP runtime it serves (eventfd is a Linux
//!   call). The flag values are the generic Linux ones (x86, x86-64, Arm,
//!   AArch64, RISC-V).
//! * The calls go through libc's `ppoll` and `eventfd`, not raw system
//!   calls; `poll` passes no signal mask, so it behaves as rustix's
//!   `poll`.
//! * Errors are [`std::io::Error`] where rustix returns its `Errno`.
//!   `Errno` converts into `std::io::Error`, so a caller that propagates
//!   with `?` into an `io::Result` compiles against either crate.
//! * Nothing is retried: an interrupted `poll` returns
//!   [`std::io::ErrorKind::Interrupted`], as rustix's does.
//!
//! These calls are the only `unsafe` code outside `shims/sha2`.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

#[cfg(not(target_os = "linux"))]
compile_error!("the rustix stand-in implements Linux only");

/// The C declarations the wrappers call (glibc and musl agree on them).
mod sys {
    use std::ffi::{c_int, c_long, c_short, c_uint, c_ulong, c_void};

    #[repr(C)]
    pub(crate) struct pollfd {
        pub(crate) fd: c_int,
        pub(crate) events: c_short,
        pub(crate) revents: c_short,
    }

    #[repr(C)]
    pub(crate) struct timespec {
        pub(crate) tv_sec: c_long,
        pub(crate) tv_nsec: c_long,
    }

    extern "C" {
        pub(crate) fn ppoll(
            fds: *mut pollfd,
            nfds: c_ulong,
            timeout: *const timespec,
            sigmask: *const c_void,
        ) -> c_int;
        pub(crate) fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    }
}

/// Waiting on file descriptors: `poll` and `eventfd`.
pub mod event {
    use std::ffi::{c_long, c_short};
    use std::io;
    use std::marker::PhantomData;
    use std::ops::BitOr;
    use std::os::fd::{AsFd, AsRawFd, BorrowedFd, FromRawFd, OwnedFd};

    use crate::sys;

    /// Seconds, as in `rustix::event::Secs`.
    pub type Secs = i64;
    /// Nanoseconds, as in `rustix::event::Nsecs`.
    pub type Nsecs = i64;

    /// A timeout for [`poll`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct Timespec {
        /// Whole seconds.
        pub tv_sec: Secs,
        /// Nanoseconds within the second, `0..1_000_000_000`.
        pub tv_nsec: Nsecs,
    }

    /// The events a [`PollFd`] asks for and the events [`poll`] reports
    /// (which may also hold `POLLERR`, `POLLHUP` or `POLLNVAL`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct PollFlags(u16);

    impl PollFlags {
        /// `POLLIN`: there is data to read.
        pub const IN: Self = Self(0x001);
        /// `POLLOUT`: writing will not block.
        pub const OUT: Self = Self(0x004);

        /// The raw `short` bits.
        pub const fn bits(self) -> u16 {
            self.0
        }

        /// Whether no flag is set.
        pub const fn is_empty(self) -> bool {
            self.0 == 0
        }

        /// Whether every flag of `other` is set.
        pub const fn contains(self, other: Self) -> bool {
            self.0 & other.0 == other.0
        }
    }

    /// One entry of a [`poll`] set: a borrowed descriptor, the events it
    /// waits for, and the events that were reported. Laid out as C's
    /// `struct pollfd`, so a slice of them is the array `poll` takes.
    #[repr(transparent)]
    pub struct PollFd<'fd> {
        pollfd: sys::pollfd,
        _fd: PhantomData<BorrowedFd<'fd>>,
    }

    impl<'fd> PollFd<'fd> {
        /// Waits for `events` on `fd`.
        pub fn new<Fd: AsFd>(fd: &'fd Fd, events: PollFlags) -> Self {
            Self {
                pollfd: sys::pollfd {
                    fd: fd.as_fd().as_raw_fd(),
                    events: events.bits() as c_short,
                    revents: 0,
                },
                _fd: PhantomData,
            }
        }

        /// The events the last [`poll`] reported for this entry.
        pub fn revents(&self) -> PollFlags {
            PollFlags(self.pollfd.revents as u16)
        }

        /// Forgets the reported events.
        pub fn clear_revents(&mut self) {
            self.pollfd.revents = 0;
        }
    }

    /// `poll(2)`: waits until an entry of `fds` is ready or `timeout`
    /// passes (forever for `None`), sets each entry's reported events, and
    /// returns how many entries have any.
    ///
    /// # Errors
    ///
    /// The OS error, [`io::ErrorKind::Interrupted`] included.
    pub fn poll(fds: &mut [PollFd<'_>], timeout: Option<&Timespec>) -> io::Result<usize> {
        let out_of_range = |_| io::Error::from(io::ErrorKind::InvalidInput);
        let timeout = match timeout {
            Some(t) => Some(sys::timespec {
                tv_sec: c_long::try_from(t.tv_sec).map_err(out_of_range)?,
                tv_nsec: c_long::try_from(t.tv_nsec).map_err(out_of_range)?,
            }),
            None => None,
        };
        let timeout_ptr = timeout
            .as_ref()
            .map_or(std::ptr::null(), |t| t as *const sys::timespec);
        // SAFETY: `PollFd` is `repr(transparent)` over `struct pollfd`, so
        // `fds` is an array of `fds.len()` pollfds that the kernel may
        // write `revents` into through the unique borrow; every entry
        // holds a descriptor borrowed for the slice's lifetime, so none is
        // closed during the call. `timeout_ptr` is null or points to a
        // timespec that lives until the call returns, and a null signal
        // mask leaves the mask unchanged.
        let ready = unsafe {
            sys::ppoll(
                fds.as_mut_ptr().cast::<sys::pollfd>(),
                fds.len() as std::ffi::c_ulong,
                timeout_ptr,
                std::ptr::null(),
            )
        };
        if ready < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(ready as usize)
    }

    /// Flags for [`eventfd`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct EventfdFlags(u32);

    impl EventfdFlags {
        /// `EFD_CLOEXEC`: close the descriptor on `exec`.
        pub const CLOEXEC: Self = Self(0o2_000_000);
        /// `EFD_NONBLOCK`: reads of a zero counter fail with `WouldBlock`
        /// instead of blocking.
        pub const NONBLOCK: Self = Self(0o4_000);

        /// The raw bits.
        pub const fn bits(self) -> u32 {
            self.0
        }
    }

    impl BitOr for EventfdFlags {
        type Output = Self;

        fn bitor(self, other: Self) -> Self {
            Self(self.0 | other.0)
        }
    }

    /// `eventfd(2)`: a descriptor holding a 64-bit counter. Writing 8
    /// native-endian bytes adds to it; reading returns it and resets it to
    /// zero; `poll` reports it readable while it is not zero.
    ///
    /// # Errors
    ///
    /// The OS error (for example, out of descriptors).
    pub fn eventfd(initval: u32, flags: EventfdFlags) -> io::Result<OwnedFd> {
        // SAFETY: `eventfd` takes two integers and touches no memory of
        // ours.
        let fd = unsafe { sys::eventfd(initval, flags.bits() as std::ffi::c_int) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `eventfd` has just returned this open descriptor, and
        // nothing else owns it, so the `OwnedFd` is its only owner.
        Ok(unsafe { OwnedFd::from_raw_fd(fd) })
    }
}

#[cfg(test)]
mod tests {
    use super::event::*;
    use std::fs::File;
    use std::io::{ErrorKind, Read, Write};
    use std::net::{TcpListener, TcpStream};

    fn timeout_ms(ms: i64) -> Timespec {
        Timespec {
            tv_sec: ms / 1000,
            tv_nsec: (ms % 1000) * 1_000_000,
        }
    }

    #[test]
    fn eventfd_counts_writes_and_reads_reset_it() {
        let fd = File::from(eventfd(0, EventfdFlags::CLOEXEC | EventfdFlags::NONBLOCK).unwrap());
        let mut counter = [0u8; 8];
        assert_eq!(
            (&fd).read(&mut counter).unwrap_err().kind(),
            ErrorKind::WouldBlock,
            "a zero counter does not block a non-blocking read"
        );
        (&fd).write_all(&2u64.to_ne_bytes()).unwrap();
        (&fd).write_all(&3u64.to_ne_bytes()).unwrap();
        (&fd).read_exact(&mut counter).unwrap();
        assert_eq!(u64::from_ne_bytes(counter), 5);
        assert_eq!(
            (&fd).read(&mut counter).unwrap_err().kind(),
            ErrorKind::WouldBlock
        );
    }

    #[test]
    fn poll_reports_exactly_the_ready_entries() {
        let quiet = File::from(eventfd(0, EventfdFlags::NONBLOCK).unwrap());
        let rung = File::from(eventfd(0, EventfdFlags::NONBLOCK).unwrap());
        let mut fds = [
            PollFd::new(&quiet, PollFlags::IN),
            PollFd::new(&rung, PollFlags::IN),
        ];
        assert_eq!(poll(&mut fds, Some(&timeout_ms(0))).unwrap(), 0);
        assert!(fds.iter().all(|fd| fd.revents().is_empty()));

        (&rung).write_all(&1u64.to_ne_bytes()).unwrap();
        assert_eq!(poll(&mut fds, Some(&timeout_ms(5_000))).unwrap(), 1);
        assert!(fds[0].revents().is_empty());
        assert!(fds[1].revents().contains(PollFlags::IN));
        fds[1].clear_revents();
        assert!(fds[1].revents().is_empty());
    }

    #[test]
    fn poll_times_out_and_sees_sockets() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();

        let start = std::time::Instant::now();
        let mut fds = [PollFd::new(&server, PollFlags::IN)];
        assert_eq!(poll(&mut fds, Some(&timeout_ms(20))).unwrap(), 0);
        assert!(start.elapsed() >= std::time::Duration::from_millis(20));

        let mut fds = [PollFd::new(&client, PollFlags::OUT)];
        assert_eq!(poll(&mut fds, None).unwrap(), 1);
        assert!(fds[0].revents().contains(PollFlags::OUT));

        client.write_all(b"x").unwrap();
        let mut fds = [PollFd::new(&server, PollFlags::IN)];
        assert_eq!(poll(&mut fds, None).unwrap(), 1);
        assert!(fds[0].revents().contains(PollFlags::IN));

        drop(client);
        let mut byte = [0u8; 2];
        assert_eq!((&server).read(&mut byte).unwrap(), 1);
        let mut fds = [PollFd::new(&server, PollFlags::IN)];
        poll(&mut fds, None).unwrap();
        assert!(!fds[0].revents().is_empty());
        assert_eq!((&server).read(&mut byte).unwrap(), 0, "EOF after hang-up");
    }
}
