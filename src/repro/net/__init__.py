"""Network stack: messages, buffers, transfers and traffic generation.

* :class:`repro.net.message.Message` — a *copy* of a DTN message held by one
  node, carrying the Spray-and-Wait copy token count and its spray history.
* :class:`repro.net.buffer.MessageBuffer` — byte-exact capacity accounting.
* :class:`repro.net.transfer.TransferManager` — bandwidth-limited,
  abort-on-link-down message transfers.
* :class:`repro.net.generator.MessageGenerator` — periodic random traffic as
  in Table II/III of the paper.
"""
