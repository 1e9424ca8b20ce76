//! The one line loop behind the text readers (tcpdump text and trace
//! JSONL): each line lands in one reused byte buffer instead of a fresh
//! `String`.

use std::io::{self, BufRead, BufReader, Read};

use crate::trace::TraceError;

/// Read-side buffer size. Larger than `BufReader`'s default so a caller's
/// own (smaller) `BufReader` is bypassed rather than copied through.
const CAPACITY: usize = 64 * 1024;

/// Splits a byte stream into lines exactly as `BufRead::lines` does: on
/// `\n`, dropping the `\n` and then one `\r` before it, keeping a final
/// line that has no `\n`, and failing with `InvalidData` on a line that
/// is not UTF-8.
pub(crate) struct Lines<R> {
    reader: BufReader<R>,
    buf: Vec<u8>,
    number: usize,
}

impl<R: Read> Lines<R> {
    pub(crate) fn new(reader: R) -> Self {
        Lines {
            reader: BufReader::with_capacity(CAPACITY, reader),
            buf: Vec::new(),
            number: 0,
        }
    }

    /// The next line and its 1-based number, or `None` at end of input.
    pub(crate) fn next_line(&mut self) -> io::Result<Option<(usize, &str)>> {
        self.buf.clear();
        if self.reader.read_until(b'\n', &mut self.buf)? == 0 {
            return Ok(None);
        }
        self.number += 1;
        let mut line = &self.buf[..];
        if let Some(rest) = line.strip_suffix(b"\n") {
            line = rest.strip_suffix(b"\r").unwrap_or(rest);
        }
        let text = std::str::from_utf8(line).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
        })?;
        Ok(Some((self.number, text)))
    }

    /// Calls `each(number, line)` for every remaining line that is not
    /// blank (all whitespace), stopping at the first error.
    pub(crate) fn for_each_nonblank(
        mut self,
        mut each: impl FnMut(usize, &str) -> Result<(), TraceError>,
    ) -> Result<(), TraceError> {
        while let Some((number, line)) = self.next_line()? {
            if !line.trim().is_empty() {
                each(number, line)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every line and its number, the way `for_each_nonblank` sees them
    /// minus the blank filter.
    fn split(input: &[u8]) -> io::Result<Vec<(usize, String)>> {
        let mut lines = Lines::new(input);
        let mut out = Vec::new();
        while let Some((n, line)) = lines.next_line()? {
            out.push((n, line.to_string()));
        }
        Ok(out)
    }

    #[test]
    fn splits_like_bufread_lines() {
        for input in [
            &b""[..],
            b"\n",
            b"a",
            b"a\n",
            b"a\r\n",
            b"a\r",
            b"a\r\r\n",
            b"\r\n\r\n",
            b"a\n\nb\r\nc",
            b" \t \n\xc2\xa0\nx",
        ] {
            let want: Vec<(usize, String)> = input
                .lines()
                .enumerate()
                .map(|(i, l)| (i + 1, l.unwrap()))
                .collect();
            assert_eq!(split(input).unwrap(), want, "{input:?}");
        }
    }

    #[test]
    fn non_utf8_is_invalid_data() {
        let err = split(b"ok\n\xff\xfe\n").unwrap_err();
        let want = b"ok\n\xff\xfe\n".lines().nth(1).unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), want.to_string());
    }

    #[test]
    fn blank_lines_are_skipped_but_counted() {
        let mut seen = Vec::new();
        Lines::new(&b"\n  \nx\n\t\r\ny\n\xc2\xa0\n"[..])
            .for_each_nonblank(|n, line| {
                seen.push((n, line.to_string()));
                Ok(())
            })
            .unwrap();
        assert_eq!(seen, vec![(3, "x".to_string()), (5, "y".to_string())]);
    }
}
