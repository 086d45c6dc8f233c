//! The control server: a fixed stand-in for fg-serve that the timed phase
//! interleaves with the real one, so that each run measures the host's
//! speed at the same moment it measures fg-serve.
//!
//! On a shared 2-vCPU host, fg-serve's latency and CPU per request drift
//! by 15–30% between runs of identical work, with the host, while the
//! ratio to this control, sampled in the same seconds, holds within about
//! 5%. The control copies fg-serve's serving pattern as of this benchmark
//! — an accept thread that polls every 5 ms and hands connections to a
//! pool of four workers, keep-alive until `Connection: close`, and a reply
//! written in 15 separate writes — but its per-request work is a fixed
//! loop that no change to the repository can touch. A change that makes
//! fg-serve faster therefore lowers the ratio; a slower host does not.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

const WORKERS: usize = 4;
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// Iterations of the fixed per-request work loop (about fg-serve's CPU per
/// decision on the host this was tuned on).
const WORK: u64 = 6_000;

/// A running control server; [`Control::stop`] joins its threads.
pub struct Control {
    /// Where it listens.
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    cpu_ns: Arc<AtomicU64>,
    threads: Vec<JoinHandle<()>>,
}

/// CPU time of the calling thread so far, nanoseconds.
fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|t| t.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Runs `f` and adds the CPU time the calling thread spent in it.
fn charged(cpu_ns: &AtomicU64, f: impl FnOnce()) {
    let start = thread_cpu_ns();
    f();
    cpu_ns.fetch_add(thread_cpu_ns().saturating_sub(start), Ordering::Relaxed);
}

impl Control {
    /// Binds an ephemeral loopback port and starts serving.
    pub fn start() -> io::Result<Control> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let cpu_ns = Arc::new(AtomicU64::new(0));
        let (tx, rx) = sync_channel::<TcpStream>(128);
        let rx = Arc::new(Mutex::new(rx));
        let mut threads = Vec::with_capacity(WORKERS + 1);
        for _ in 0..WORKERS {
            let (rx, stop, cpu_ns) = (rx.clone(), stop.clone(), cpu_ns.clone());
            threads.push(std::thread::spawn(move || {
                charged(&cpu_ns, || worker(&rx, &stop));
            }));
        }
        let (stop_accept, cpu_accept) = (stop.clone(), cpu_ns.clone());
        threads.push(std::thread::spawn(move || {
            charged(&cpu_accept, || {
                while !stop_accept.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if tx.send(stream).is_err() {
                                return;
                            }
                        }
                        Err(_) => std::thread::sleep(ACCEPT_POLL),
                    }
                }
            });
        }));
        Ok(Control {
            addr,
            stop,
            cpu_ns,
            threads,
        })
    }

    /// Stops serving (callers must have closed their connections) and
    /// returns the CPU time every control thread used, nanoseconds.
    pub fn stop(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads {
            t.join().expect("control thread panicked");
        }
        self.cpu_ns.load(Ordering::Relaxed)
    }
}

fn worker(rx: &Mutex<Receiver<TcpStream>>, stop: &AtomicBool) {
    let mut scratch = vec![0u64; 16 * 1024];
    while !stop.load(Ordering::Relaxed) {
        let next = rx
            .lock()
            .expect("control queue lock")
            .recv_timeout(Duration::from_millis(50));
        if let Ok(stream) = next {
            let _ = serve(stream, &mut scratch);
        }
    }
}

/// Serves one connection until the peer closes it or asks to.
fn serve(stream: TcpStream, scratch: &mut [u64]) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut state = 1u64;
    loop {
        let (mut length, mut close) = (0usize, false);
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Ok(());
            }
            let lower = line.trim_end().to_ascii_lowercase();
            if lower.is_empty() {
                break;
            }
            if let Some(v) = lower.strip_prefix("content-length:") {
                length = v.trim().parse().unwrap_or(0);
            }
            close |= lower == "connection: close";
        }
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body)?;
        for _ in 0..WORK {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = (state >> 40) as usize % scratch.len();
            scratch[i] = scratch[i].wrapping_add(state);
        }
        std::hint::black_box(&scratch);
        let reply = &body[..body.len().min(180)];
        let length = reply.len().to_string();
        for part in [
            "HTTP/1.1 ",
            "200",
            " ",
            "OK",
            "\r\nContent-Type: ",
            "application/json",
            "\r\nContent-Length: ",
            &length,
            "\r\n",
            "traceparent",
            ": ",
            "00-control",
            "\r\n",
            "\r\n",
        ] {
            writer.write_all(part.as_bytes())?;
        }
        writer.write_all(reply)?;
        if close {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_serve::loadgen::read_response;

    #[test]
    fn answers_keep_alive_and_closing_requests() {
        let control = Control::start().unwrap();
        let stream = TcpStream::connect(control.addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        for _ in 0..2 {
            writer
                .write_all(b"POST /v1/decide HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd")
                .unwrap();
            assert_eq!(read_response(&mut reader).unwrap(), (200, b"abcd".to_vec()));
        }
        writer
            .write_all(b"POST /x HTTP/1.1\r\nConnection: close\r\nContent-Length: 0\r\n\r\n")
            .unwrap();
        assert_eq!(read_response(&mut reader).unwrap().0, 200);
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        assert!(
            rest.is_empty(),
            "the control closes after Connection: close"
        );
        drop((reader, writer));
        assert!(control.stop() > 0, "control threads account their CPU time");
    }
}
