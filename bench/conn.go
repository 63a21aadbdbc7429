package main

// meterConn wraps the client's side of one exchange. It always counts
// bytes (two adds per call, so it is on in the untraced pass too); when
// timed it also stamps the first and last write and read, which splits a
// request, from outside the mlaas package, into
//
//	client.encrypt  call → first write   (pack + encode + encrypt)
//	wire.send       first → last write   (serialise + socket)
//	server.wait     last write → first read
//	wire.recv       first → last read
//	client.decrypt  last read → return   (decrypt + decode)
//
// and when hashed it digests the response bytes for the replay check.

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"net"
	"time"
)

type meterConn struct {
	net.Conn
	sent, received int64

	timed                 bool
	firstWrite, lastWrite time.Time
	firstRead, lastRead   time.Time
	writeCalls, readCalls int
	responseHash          hash.Hash
}

func (c *meterConn) Write(p []byte) (int, error) {
	if c.timed && c.writeCalls == 0 {
		c.firstWrite = time.Now()
	}
	c.writeCalls++
	n, err := c.Conn.Write(p)
	c.sent += int64(n)
	if c.timed {
		c.lastWrite = time.Now()
	}
	return n, err
}

func (c *meterConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.received += int64(n)
	if c.timed && n > 0 {
		now := time.Now()
		if c.readCalls == 0 {
			c.firstRead = now
		}
		c.lastRead = now
		c.readCalls++
	}
	if c.responseHash != nil {
		c.responseHash.Write(p[:n])
	}
	return n, err
}

// hashResponse makes the conn digest every byte it reads from now on.
func (c *meterConn) hashResponse() { c.responseHash = sha256.New() }

func (c *meterConn) responseDigest() string {
	return hex.EncodeToString(c.responseHash.Sum(nil))
}

// wireSplit is the five-way split of one timed exchange, in milliseconds.
type wireSplit struct {
	Encrypt, Send, Wait, Recv, Decrypt float64
}

// split attributes [start, end] of one exchange; ok is false when the
// exchange never both wrote and read (a failed request).
func (c *meterConn) split(start, end time.Time) (wireSplit, bool) {
	if c.writeCalls == 0 || c.readCalls == 0 {
		return wireSplit{}, false
	}
	return wireSplit{
		Encrypt: ms(c.firstWrite.Sub(start)),
		Send:    ms(c.lastWrite.Sub(c.firstWrite)),
		Wait:    ms(c.firstRead.Sub(c.lastWrite)),
		Recv:    ms(c.lastRead.Sub(c.firstRead)),
		Decrypt: ms(end.Sub(c.lastRead)),
	}, true
}
