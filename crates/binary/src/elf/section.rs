//! Section headers and the section contents they point at.

use super::types::*;
use crate::error::BinaryError;
use std::borrow::Cow;

/// A section header plus (for sections that occupy file space) its bytes,
/// borrowed from the file it was parsed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section<'a> {
    /// Section name resolved through the section-header string table.
    pub name: Cow<'a, str>,
    /// Raw offset of the name within `.shstrtab`.
    pub name_offset: u32,
    /// Section type (`SHT_PROGBITS`, `SHT_SYMTAB`, ...).
    pub sh_type: u32,
    /// Section flags (`SHF_ALLOC | SHF_EXECINSTR`, ...).
    pub flags: u64,
    /// Virtual address at execution.
    pub addr: u64,
    /// Offset of the section contents in the file.
    pub offset: u64,
    /// Size of the section contents in bytes.
    pub size: u64,
    /// Section-dependent link field (e.g. the string table of a symtab).
    pub link: u32,
    /// Section-dependent info field.
    pub info: u32,
    /// Alignment constraint.
    pub addralign: u64,
    /// Entry size for table-like sections.
    pub entsize: u64,
    /// The section's bytes (empty for `SHT_NOBITS` and the null section).
    pub data: &'a [u8],
}

impl<'a> Section<'a> {
    /// Parse the section header at `shdr_offset` and borrow its contents
    /// from `file`. `index` is used for error reporting.
    pub fn parse(file: &'a [u8], shdr_offset: usize, index: usize) -> Result<Self, BinaryError> {
        let needed = shdr_offset.saturating_add(SHDR_SIZE);
        if file.len() < needed {
            return Err(BinaryError::Truncated {
                context: "section header",
                needed,
                available: file.len(),
            });
        }
        let name_offset = read_u32(file, shdr_offset);
        let sh_type = read_u32(file, shdr_offset + 4);
        let flags = read_u64(file, shdr_offset + 8);
        let addr = read_u64(file, shdr_offset + 16);
        let offset = read_u64(file, shdr_offset + 24);
        let size = read_u64(file, shdr_offset + 32);
        let link = read_u32(file, shdr_offset + 40);
        let info = read_u32(file, shdr_offset + 44);
        let addralign = read_u64(file, shdr_offset + 48);
        let entsize = read_u64(file, shdr_offset + 56);

        let data = if sh_type == SHT_NOBITS || sh_type == SHT_NULL || size == 0 {
            &[]
        } else {
            usize::try_from(offset)
                .ok()
                .zip(usize::try_from(size).ok())
                .and_then(|(start, size)| file.get(start..start.checked_add(size)?))
                .ok_or(BinaryError::SectionOutOfBounds { index })?
        };

        Ok(Self {
            name: Cow::Borrowed(""),
            name_offset,
            sh_type,
            flags,
            addr,
            offset,
            size,
            link,
            info,
            addralign,
            entsize,
            data,
        })
    }

    /// Serialize this header into its 64-byte on-disk form (contents are
    /// written separately by the builder).
    pub fn header_bytes(&self) -> [u8; SHDR_SIZE] {
        let mut out = [0u8; SHDR_SIZE];
        out[0..4].copy_from_slice(&self.name_offset.to_le_bytes());
        out[4..8].copy_from_slice(&self.sh_type.to_le_bytes());
        out[8..16].copy_from_slice(&self.flags.to_le_bytes());
        out[16..24].copy_from_slice(&self.addr.to_le_bytes());
        out[24..32].copy_from_slice(&self.offset.to_le_bytes());
        out[32..40].copy_from_slice(&self.size.to_le_bytes());
        out[40..44].copy_from_slice(&self.link.to_le_bytes());
        out[44..48].copy_from_slice(&self.info.to_le_bytes());
        out[48..56].copy_from_slice(&self.addralign.to_le_bytes());
        out[56..64].copy_from_slice(&self.entsize.to_le_bytes());
        out
    }

    /// Whether the section holds executable machine code.
    pub fn is_executable(&self) -> bool {
        self.flags & SHF_EXECINSTR != 0
    }

    /// Whether the section is writable data.
    pub fn is_writable_data(&self) -> bool {
        self.flags & SHF_WRITE != 0 && self.sh_type != SHT_NOBITS
    }

    /// Whether the section is uninitialized data (`.bss`).
    pub fn is_bss(&self) -> bool {
        self.sh_type == SHT_NOBITS
    }
}

/// A string table section: NUL-terminated names looked up by offset.
///
/// The table is checked for UTF-8 once, so a name of a valid table is a
/// borrowed slice of it with no check of its own. A name of an invalid
/// table goes through `String::from_utf8_lossy`, which borrows it if it is
/// valid and replaces each invalid sequence with U+FFFD otherwise.
#[derive(Debug, Clone, Copy)]
pub struct StringTable<'a> {
    bytes: &'a [u8],
    text: Option<&'a str>,
}

impl<'a> StringTable<'a> {
    /// View `bytes` as a string table.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            text: std::str::from_utf8(bytes).ok(),
        }
    }

    /// The name at `offset`, up to the next NUL or the end of the table.
    pub fn get(&self, offset: usize) -> Result<Cow<'a, str>, BinaryError> {
        let tail = self
            .bytes
            .get(offset..)
            .filter(|tail| !tail.is_empty())
            .ok_or(BinaryError::BadStringOffset(offset))?;
        let end = offset + tail.iter().position(|&b| b == 0).unwrap_or(tail.len());
        Ok(match self.text.and_then(|text| text.get(offset..end)) {
            Some(name) => Cow::Borrowed(name),
            None => String::from_utf8_lossy(&self.bytes[offset..end]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip_through_parse() {
        let sec = Section {
            name: Cow::Borrowed(""),
            name_offset: 17,
            sh_type: SHT_PROGBITS,
            flags: SHF_ALLOC | SHF_EXECINSTR,
            addr: 0x40_1000,
            offset: 0,
            size: 0,
            link: 0,
            info: 0,
            addralign: 16,
            entsize: 0,
            data: &[],
        };
        let mut file = vec![0u8; SHDR_SIZE];
        file.copy_from_slice(&sec.header_bytes());
        let parsed = Section::parse(&file, 0, 1).unwrap();
        assert_eq!(parsed.name_offset, 17);
        assert_eq!(parsed.sh_type, SHT_PROGBITS);
        assert_eq!(parsed.flags, SHF_ALLOC | SHF_EXECINSTR);
        assert_eq!(parsed.addralign, 16);
        assert!(parsed.is_executable());
    }

    #[test]
    fn out_of_bounds_contents_rejected() {
        let sec = Section {
            name: Cow::Borrowed(""),
            name_offset: 0,
            sh_type: SHT_PROGBITS,
            flags: 0,
            addr: 0,
            offset: 1_000,
            size: 64,
            link: 0,
            info: 0,
            addralign: 1,
            entsize: 0,
            data: &[],
        };
        let mut file = vec![0u8; SHDR_SIZE];
        file.copy_from_slice(&sec.header_bytes());
        let err = Section::parse(&file, 0, 2).unwrap_err();
        assert_eq!(err, BinaryError::SectionOutOfBounds { index: 2 });
    }

    #[test]
    fn truncated_header_rejected() {
        let err = Section::parse(&[0u8; 10], 0, 0).unwrap_err();
        assert!(matches!(err, BinaryError::Truncated { .. }));
    }

    #[test]
    fn string_table_reads_nul_terminated() {
        let tab = StringTable::new(b"\0.text\0.data\0");
        assert_eq!(tab.get(1).unwrap(), ".text");
        assert_eq!(tab.get(7).unwrap(), ".data");
        assert_eq!(tab.get(0).unwrap(), "");
        assert_eq!(tab.get(15), Err(BinaryError::BadStringOffset(15)));
        assert!(tab.get(100).is_err());
    }

    #[test]
    fn string_table_unterminated_tail() {
        assert_eq!(StringTable::new(b"abc").get(0).unwrap(), "abc");
    }

    #[test]
    fn string_table_invalid_utf8_is_replaced() {
        // A valid table entered mid-character, and an invalid table.
        let valid = "\0caf\u{e9}\0".as_bytes();
        let table = StringTable::new(valid);
        assert!(matches!(table.get(1).unwrap(), Cow::Borrowed("caf\u{e9}")));
        assert_eq!(table.get(5).unwrap(), "\u{fffd}");
        let table = StringTable::new(b"ok\0b\xffd\0");
        assert!(matches!(table.get(0).unwrap(), Cow::Borrowed("ok")));
        assert_eq!(table.get(3).unwrap(), "b\u{fffd}d");
    }

    #[test]
    fn classification_helpers() {
        let mut s = Section {
            name: Cow::Borrowed(".bss"),
            name_offset: 0,
            sh_type: SHT_NOBITS,
            flags: SHF_ALLOC | SHF_WRITE,
            addr: 0,
            offset: 0,
            size: 128,
            link: 0,
            info: 0,
            addralign: 8,
            entsize: 0,
            data: &[],
        };
        assert!(s.is_bss());
        assert!(!s.is_writable_data());
        s.sh_type = SHT_PROGBITS;
        assert!(s.is_writable_data());
        assert!(!s.is_executable());
    }
}
