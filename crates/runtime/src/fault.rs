//! Seeded, deterministic fault injection.
//!
//! Each [`Fault`] models one way staged execution rots in production:
//! memory corruption on the store path, a lost write, a truncated buffer,
//! a runaway reader, and byte-level damage to a persisted cache file. The
//! [`FaultInjector`] is a tiny splitmix64 generator, so a `(fault, seed)`
//! pair reproduces the exact same damage on every run and both engines —
//! chaos failures are replayable, never flaky.
//!
//! Faults are **one-shot**: each injection fires once, so a recovery path
//! (rebuild, fallback) observes a healthy system afterwards — exactly the
//! transient-fault model graceful degradation is designed for.

use ds_interp::{corrupt_value, Value};
use std::fmt;
use std::str::FromStr;

/// One injectable fault class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Corrupt the value of one loader store (bit-flip on the write path).
    CorruptSlot,
    /// Silently drop one loader store (lost write).
    DropStore,
    /// Truncate the in-memory cache buffer after it was sealed.
    TruncateBuffer,
    /// Run the next staged execution with only this much fuel, modelling a
    /// runaway reader hitting the step limit.
    ExhaustFuel(u64),
    /// Flip one byte of a serialized cache file.
    CorruptFile,
    /// Cut a serialized cache file short.
    TruncateFile,
    /// Flush only the first N bytes of the next write-ahead-log append (a
    /// lost sector: the writer believes the record is durable, recovery
    /// discovers the torn tail).
    TornWrite(u64),
    /// Kill the write-ahead-log writer once its cumulative stream reaches
    /// byte N: the write containing that byte persists only up to it and
    /// every later append fails with a crash error.
    CrashAtByte(u64),
    /// Stall the next staged execution (loader, reader or fallback) for N
    /// milliseconds before it runs — a stager wedged on a slow dependency.
    /// The answer is unchanged; only the clock suffers, which is exactly
    /// what deadlines and drain must survive.
    Stall(u64),
    /// Delay the next write-ahead-log flush by N milliseconds while the
    /// log lock is held — a slow disk serializing every concurrent
    /// appender behind one sluggish write.
    SlowIo(u64),
}

impl Fault {
    /// Whether this fault damages a serialized cache *file* (applied via
    /// [`FaultInjector::corrupt_text`] / [`FaultInjector::truncate_text`])
    /// rather than the in-memory lifecycle.
    pub fn is_file_fault(&self) -> bool {
        matches!(self, Fault::CorruptFile | Fault::TruncateFile)
    }

    /// Whether this fault strikes the write-ahead log (armed via
    /// [`Wal::arm`](crate::Wal::arm), or through
    /// [`Session::inject`](crate::Session::inject) once a log is attached).
    pub fn is_wal_fault(&self) -> bool {
        matches!(self, Fault::TornWrite(_) | Fault::CrashAtByte(_))
    }

    /// Whether this fault only costs wall-clock time (a stalled stage or a
    /// slow log flush) — the answer stream is bit-identical; deadlines,
    /// backpressure and drain are what it stresses.
    pub fn is_latency_fault(&self) -> bool {
        matches!(self, Fault::Stall(_) | Fault::SlowIo(_))
    }

    /// Every in-memory fault class, for exhaustive chaos matrices.
    pub const MEMORY_FAULTS: [Fault; 4] = [
        Fault::CorruptSlot,
        Fault::DropStore,
        Fault::TruncateBuffer,
        Fault::ExhaustFuel(3),
    ];

    /// Every file fault class.
    pub const FILE_FAULTS: [Fault; 2] = [Fault::CorruptFile, Fault::TruncateFile];

    /// Every write-ahead-log fault class (representative placements; chaos
    /// matrices sweep the offsets).
    pub const WAL_FAULTS: [Fault; 2] = [Fault::TornWrite(40), Fault::CrashAtByte(200)];

    /// Every latency fault class (representative delays; short enough for
    /// chaos matrices, long enough to trip a millisecond deadline).
    pub const LATENCY_FAULTS: [Fault; 2] = [Fault::Stall(5), Fault::SlowIo(5)];
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::CorruptSlot => write!(f, "corrupt-slot"),
            Fault::DropStore => write!(f, "drop-store"),
            Fault::TruncateBuffer => write!(f, "truncate-buffer"),
            Fault::ExhaustFuel(n) => write!(f, "fuel:{n}"),
            Fault::CorruptFile => write!(f, "corrupt-file"),
            Fault::TruncateFile => write!(f, "truncate-file"),
            Fault::TornWrite(n) => write!(f, "torn-write:{n}"),
            Fault::CrashAtByte(n) => write!(f, "crash-at-byte:{n}"),
            Fault::Stall(n) => write!(f, "stall:{n}"),
            Fault::SlowIo(n) => write!(f, "slow-io:{n}"),
        }
    }
}

impl FromStr for Fault {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "corrupt-slot" => Ok(Fault::CorruptSlot),
            "drop-store" => Ok(Fault::DropStore),
            "truncate-buffer" => Ok(Fault::TruncateBuffer),
            "corrupt-file" => Ok(Fault::CorruptFile),
            "truncate-file" => Ok(Fault::TruncateFile),
            other => {
                let numeric = |prefix: &str, build: fn(u64) -> Fault| {
                    other.strip_prefix(prefix).map(|n| {
                        n.parse()
                            .map(build)
                            .map_err(|_| format!("bad count in `{other}`"))
                    })
                };
                numeric("fuel:", Fault::ExhaustFuel)
                    .or_else(|| numeric("torn-write:", Fault::TornWrite))
                    .or_else(|| numeric("crash-at-byte:", Fault::CrashAtByte))
                    .or_else(|| numeric("stall:", Fault::Stall))
                    .or_else(|| numeric("slow-io:", Fault::SlowIo))
                    .unwrap_or_else(|| {
                        Err(format!(
                            "unknown fault `{other}`; expected corrupt-slot, drop-store, \
                             truncate-buffer, fuel:N, corrupt-file, truncate-file, \
                             torn-write:N, crash-at-byte:N, stall:N or slow-io:N"
                        ))
                    })
            }
        }
    }
}

/// A deterministic splitmix64 stream for picking fault sites.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    state: u64,
}

impl FaultInjector {
    /// Creates an injector whose whole behaviour is a function of `seed`.
    pub fn new(seed: u64) -> FaultInjector {
        FaultInjector { state: seed }
    }

    /// Next raw 64-bit draw (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw in `0..n` (`0` when `n == 0`).
    pub fn pick(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// Deterministic bit-level corruption of a value (delegates to the
    /// interpreter's [`corrupt_value`], so engine-level write faults and
    /// injector-level tampering damage values identically).
    pub fn corrupt(&self, v: Value) -> Value {
        corrupt_value(v)
    }

    /// Flips bit 0 of the character at a seeded position, so the result is
    /// valid text that always differs from `text` (and has its byte
    /// length). On ASCII text this flips the seeded byte: `'0'` → `'1'`,
    /// `'{'` → `'z'`. Any other character `c` becomes `c ^ 1`, which is a
    /// character too: the surrogate gap `D800..=DFFF` starts at an even
    /// code point and ends at an odd one, and so do the UTF-8 length
    /// classes, so the flip never leaves them.
    pub fn corrupt_text(&mut self, text: &str) -> String {
        let n = text.chars().count();
        if n == 0 {
            return String::new();
        }
        let i = self.pick(n as u64) as usize;
        text.chars()
            .enumerate()
            .map(|(j, c)| if j == i { flip_low_bit(c) } else { c })
            .collect()
    }

    /// Cuts `text` at a seeded interior position (always strictly shorter
    /// than the input when the input is non-empty). The cut always removes
    /// content: a position that would only shave trailing whitespace moves
    /// back to the start of the last non-whitespace character, since such
    /// a cut leaves the document intact.
    pub fn truncate_text(&mut self, text: &str) -> String {
        if text.is_empty() {
            return String::new();
        }
        let cut = self.pick(text.len() as u64) as usize;
        let last_content = text.trim_end().char_indices().last().map_or(0, |(i, _)| i);
        text[..cut.min(last_content)].to_string()
    }
}

/// `c` with bit 0 of its code point flipped (see
/// [`FaultInjector::corrupt_text`]); the fallback is never taken.
fn flip_low_bit(c: char) -> char {
    char::from_u32(u32::from(c) ^ 1).unwrap_or(char::REPLACEMENT_CHARACTER)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = FaultInjector::new(7);
        let mut b = FaultInjector::new(7);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = FaultInjector::new(8);
        assert_ne!(FaultInjector::new(7).next_u64(), c.next_u64());
    }

    #[test]
    fn fault_spec_round_trips_through_strings() {
        for f in [
            Fault::CorruptSlot,
            Fault::DropStore,
            Fault::TruncateBuffer,
            Fault::ExhaustFuel(17),
            Fault::CorruptFile,
            Fault::TruncateFile,
            Fault::TornWrite(9),
            Fault::CrashAtByte(314),
            Fault::Stall(25),
            Fault::SlowIo(40),
        ] {
            assert_eq!(f.to_string().parse::<Fault>().unwrap(), f);
        }
        assert!("fuel:x".parse::<Fault>().is_err());
        assert!("torn-write:".parse::<Fault>().is_err());
        assert!("crash-at-byte:-1".parse::<Fault>().is_err());
        assert!("stall:".parse::<Fault>().is_err());
        assert!("slow-io:ms".parse::<Fault>().is_err());
        assert!("meteor-strike".parse::<Fault>().is_err());
    }

    #[test]
    fn text_faults_always_change_the_text() {
        let mut inj = FaultInjector::new(3);
        let text = "{\"schema\": \"ds-telemetry\"}";
        for _ in 0..50 {
            assert_ne!(inj.corrupt_text(text), text);
            assert!(inj.truncate_text(text).len() < text.len());
        }
        // A pretty-printed file ends in a newline; the cut still removes
        // content, never only the trailing whitespace.
        let text = "{\"kind\": \"cache-store\"}\n\n";
        for seed in 0..64 {
            let cut = FaultInjector::new(seed).truncate_text(text);
            assert!(cut.len() < text.trim_end().len(), "seed {seed}: {cut:?}");
        }
    }

    #[test]
    fn corrupt_text_keeps_multibyte_text_valid_and_always_changes_it() {
        // Flipping bit 0 of a UTF-8 byte could make `F4` a `F5` (no such
        // lead byte) or `E1 80` an `E0 80` (overlong): the flip acts on
        // characters instead.
        let texts = [
            "{\"note\": \"\u{100000}\"}",
            "\u{10FFFF}\u{D7FF}\u{E000}\u{FFFF}",
            "\u{1000}\u{1080}é€",
            "\"ä\": [\"\u{1F600}\", 0x3ff0]",
            "\u{100000}",
        ];
        for text in texts {
            for seed in 0..500 {
                let got = FaultInjector::new(seed).corrupt_text(text);
                assert_ne!(got, text, "seed {seed}");
                assert_eq!(got.len(), text.len(), "seed {seed}");
                let changed = got.chars().zip(text.chars()).filter(|(a, b)| a != b);
                assert_eq!(changed.count(), 1, "seed {seed}: {got:?}");
            }
        }
        for c in (0..=u32::from(char::MAX)).filter_map(char::from_u32) {
            let flipped = flip_low_bit(c);
            assert_eq!(u32::from(flipped), u32::from(c) ^ 1);
            assert_eq!(flipped.len_utf8(), c.len_utf8());
        }
    }

    #[test]
    fn corrupt_text_on_ascii_flips_the_seeded_byte() {
        // Character positions are byte positions in ASCII text, so seeded
        // damage to the (ASCII) cache files and logs lands where it did
        // when the flip acted on bytes.
        let text = "{\"kind\": \"cache-store\", \"format\": 2}";
        for seed in 0..64 {
            let i = FaultInjector::new(seed).pick(text.len() as u64) as usize;
            let mut bytes = text.as_bytes().to_vec();
            bytes[i] ^= 1;
            let want = String::from_utf8(bytes).expect("ascii");
            assert_eq!(FaultInjector::new(seed).corrupt_text(text), want);
        }
    }

    #[test]
    fn fault_classes_are_partitioned() {
        for f in Fault::MEMORY_FAULTS {
            assert!(!f.is_file_fault() && !f.is_wal_fault() && !f.is_latency_fault());
        }
        for f in Fault::FILE_FAULTS {
            assert!(f.is_file_fault() && !f.is_wal_fault() && !f.is_latency_fault());
        }
        for f in Fault::WAL_FAULTS {
            assert!(f.is_wal_fault() && !f.is_file_fault() && !f.is_latency_fault());
        }
        for f in Fault::LATENCY_FAULTS {
            assert!(f.is_latency_fault() && !f.is_file_fault() && !f.is_wal_fault());
        }
    }
}
